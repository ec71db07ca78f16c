"""Package metadata for the zkVM compiler-optimization reproduction.

The package lives under ``src/`` (``pip install -e .`` picks it up from
there) and installs a ``repro`` console script equivalent to
``python -m repro``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

ROOT = Path(__file__).resolve().parent

VERSION = re.search(r'__version__ = "([^"]+)"',
                    (ROOT / "src" / "repro" / "__init__.py").read_text()).group(1)

README = ROOT / "README.md"
LONG_DESCRIPTION = README.read_text() if README.is_file() else ""

setup(
    name="repro-zkvm-opt",
    version=VERSION,
    description=("Reproduction of 'Evaluating Compiler Optimization Impacts on "
                 "zkVM Performance' (ASPLOS 2026): MiniC-to-RV32IM compiler, "
                 "emulator, zkVM cost models, benchmark suite, experiment "
                 "engine and autotuner"),
    long_description=LONG_DESCRIPTION,
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["scipy"],
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: Software Development :: Compilers",
    ],
)
