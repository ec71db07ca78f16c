"""Reduced-scale stand-ins for the NAS Parallel Benchmarks (sequential Rust port).

The real NPB programs are thousands of lines of floating-point code; these
stand-ins keep each benchmark's characteristic loop/memory structure (CG's
sparse mat-vec, IS's counting sort, MG's multi-level relaxation, the
line-solve sweeps of LU/SP/BT, ...) at integer precision and reduced size.
"""

from __future__ import annotations

from . import register


def _register(name: str, source: str, description: str,
              expected_output: tuple[int, ...]) -> None:
    register(f"npb-{name}", "npb", source, description,
             expected_output=expected_output)


_register("ep", """
// Embarrassingly Parallel: generate pseudo-random pairs and count by annulus.
const SAMPLES = 600;
global counts[10];

fn main() -> int {
  var seed = 271828183;
  var i;
  for (i = 0; i < SAMPLES; i = i + 1) {
    seed = (seed * 1103515245 + 12345) % 2147483647;
    var x = seed % 1000;
    seed = (seed * 1103515245 + 12345) % 2147483647;
    var y = seed % 1000;
    var t = (x * x + y * y) / 100000;
    if (t > 9) { t = 9; }
    if (t < 0) { t = 0 - t; if (t > 9) { t = 9; } }
    counts[t] = counts[t] + 1;
  }
  var acc = 0;
  for (i = 0; i < 10; i = i + 1) { acc = acc + counts[i] * (i + 1); }
  print(acc);
  return acc;
}
""", "EP: pseudo-random pair generation and binning", expected_output=(3995,))

_register("cg", """
// Conjugate Gradient: repeated sparse matrix-vector products.
const N = 24; const NNZ_PER_ROW = 4; const ITERS = 6;
global colidx[96]; global values[96]; global x[24]; global q[24]; global r[24];

fn spmv() {
  var i; var k;
  for (i = 0; i < N; i = i + 1) {
    var acc = 0;
    for (k = 0; k < NNZ_PER_ROW; k = k + 1) {
      acc = acc + values[i * NNZ_PER_ROW + k] * x[colidx[i * NNZ_PER_ROW + k]];
    }
    q[i] = acc;
  }
}

fn main() -> int {
  var i; var it;
  for (i = 0; i < N * NNZ_PER_ROW; i = i + 1) {
    colidx[i] = (i * 7 + 3) % N;
    values[i] = (i * 13) % 9 - 4;
  }
  for (i = 0; i < N; i = i + 1) { x[i] = 1; }
  var rho = 0;
  for (it = 0; it < ITERS; it = it + 1) {
    spmv();
    rho = 0;
    for (i = 0; i < N; i = i + 1) {
      r[i] = x[i] - q[i] / 8;
      rho = rho + r[i] * r[i] % 65536;
    }
    for (i = 0; i < N; i = i + 1) { x[i] = r[i] + x[i] / 2; }
  }
  print(rho);
  return rho;
}
""", "CG: sparse matrix-vector iteration", expected_output=(24,))

_register("is", """
// Integer Sort: counting sort over a small key range.
const NKEYS = 256; const RANGE = 64;
global keys[256]; global counts[64]; global sorted[256];

fn main() -> int {
  var i;
  var seed = 314159;
  for (i = 0; i < NKEYS; i = i + 1) {
    seed = (seed * 1103515245 + 12345) % 2147483647;
    keys[i] = seed % RANGE;
  }
  for (i = 0; i < RANGE; i = i + 1) { counts[i] = 0; }
  for (i = 0; i < NKEYS; i = i + 1) { counts[keys[i]] = counts[keys[i]] + 1; }
  for (i = 1; i < RANGE; i = i + 1) { counts[i] = counts[i] + counts[i - 1]; }
  for (i = NKEYS - 1; i >= 0; i = i - 1) {
    counts[keys[i]] = counts[keys[i]] - 1;
    sorted[counts[keys[i]]] = keys[i];
  }
  var acc = 0;
  for (i = 0; i < NKEYS; i = i + 1) { acc = acc + sorted[i] * (i % 7); }
  print(acc);
  return acc;
}
""", "IS: bucket/counting sort of integer keys", expected_output=(2126,))

_register("ft", """
// FT: butterfly-structured transform passes over a signal (integer DFT stand-in).
const N = 64; const PASSES = 6;
global re[64]; global im[64];

fn main() -> int {
  var i; var p;
  for (i = 0; i < N; i = i + 1) { re[i] = (i * 37) % 97 - 48; im[i] = (i * 53) % 89 - 44; }
  var span = 1;
  for (p = 0; p < PASSES; p = p + 1) {
    for (i = 0; i < N; i = i + 1) {
      var partner = i ^ span;
      if (partner > i) {
        var tr = re[i] + re[partner];
        var ti = im[i] + im[partner];
        var br = re[i] - re[partner];
        var bi = im[i] - im[partner];
        re[i] = tr; im[i] = ti;
        re[partner] = (br * 3 - bi) / 4;
        im[partner] = (bi * 3 + br) / 4;
      }
    }
    span = span * 2;
  }
  var acc = 0;
  for (i = 0; i < N; i = i + 1) { acc = acc + re[i] * 2 + im[i]; }
  print(acc);
  return acc;
}
""", "FT: butterfly transform passes", expected_output=(-2861,))

_register("mg", """
// MG: V-cycle style multi-level relaxation on a 1-D grid.
const N = 64; const CYCLES = 3;
global fine[64]; global coarse[32]; global coarser[16];

fn relax(v, n) {
  var i;
  for (i = 1; i < n - 1; i = i + 1) {
    v[i] = (v[i - 1] + 2 * v[i] + v[i + 1]) / 4;
  }
}

fn main() -> int {
  var i; var c;
  for (i = 0; i < N; i = i + 1) { fine[i] = (i * 29) % 51 - 25; }
  for (c = 0; c < CYCLES; c = c + 1) {
    relax(fine, N);
    for (i = 0; i < N / 2; i = i + 1) { coarse[i] = (fine[2 * i] + fine[2 * i + 1]) / 2; }
    relax(coarse, N / 2);
    for (i = 0; i < N / 4; i = i + 1) { coarser[i] = (coarse[2 * i] + coarse[2 * i + 1]) / 2; }
    relax(coarser, N / 4);
    for (i = 0; i < N / 4; i = i + 1) { coarse[2 * i] = coarse[2 * i] + coarser[i] / 2; }
    relax(coarse, N / 2);
    for (i = 0; i < N / 2; i = i + 1) { fine[2 * i] = fine[2 * i] + coarse[i] / 2; }
    relax(fine, N);
  }
  var acc = 0;
  for (i = 0; i < N; i = i + 1) { acc = acc + fine[i] * (i + 1); }
  print(acc);
  return acc;
}
""", "MG: multigrid V-cycle relaxation", expected_output=(3192,))

_register("lu", """
// LU: SSOR-style sweeps with forward/backward dependent updates over a 2-D grid.
const N = 12; const ITERS = 3;
global u[144]; global rsd[144];

fn main() -> int {
  var i; var j; var it;
  for (i = 0; i < N * N; i = i + 1) { u[i] = (i * 17) % 41 - 20; rsd[i] = (i * 11) % 23 - 11; }
  for (it = 0; it < ITERS; it = it + 1) {
    // Lower-triangular sweep.
    for (i = 1; i < N; i = i + 1) {
      for (j = 1; j < N; j = j + 1) {
        rsd[i * N + j] = rsd[i * N + j] - (u[(i - 1) * N + j] + u[i * N + j - 1]) / 4;
      }
    }
    // Upper-triangular sweep.
    for (i = N - 2; i >= 0; i = i - 1) {
      for (j = N - 2; j >= 0; j = j - 1) {
        rsd[i * N + j] = rsd[i * N + j] - (u[(i + 1) * N + j] + u[i * N + j + 1]) / 4;
      }
    }
    for (i = 0; i < N * N; i = i + 1) { u[i] = u[i] + rsd[i] / 8; }
  }
  var acc = 0;
  for (i = 0; i < N * N; i = i + 1) { acc = acc + u[i] * (i % 5 + 1); }
  print(acc);
  return acc;
}
""", "LU: SSOR sweeps over a structured grid", expected_output=(122,))

_register("sp", """
// SP: scalar pentadiagonal line solves along both grid dimensions.
const N = 12; const ITERS = 3;
global u[144]; global lhs[144]; global rhs[144];

fn main() -> int {
  var i; var j; var it;
  for (i = 0; i < N * N; i = i + 1) {
    u[i] = (i * 23) % 37 - 18;
    lhs[i] = (i * 7) % 5 + 2;
    rhs[i] = (i * 13) % 27 - 13;
  }
  for (it = 0; it < ITERS; it = it + 1) {
    // x-direction line solve (Thomas-like forward/backward pass).
    for (i = 0; i < N; i = i + 1) {
      for (j = 1; j < N; j = j + 1) {
        rhs[i * N + j] = rhs[i * N + j] - rhs[i * N + j - 1] / lhs[i * N + j - 1];
      }
      for (j = N - 2; j >= 0; j = j - 1) {
        rhs[i * N + j] = rhs[i * N + j] - rhs[i * N + j + 1] / lhs[i * N + j + 1];
      }
    }
    // y-direction line solve.
    for (j = 0; j < N; j = j + 1) {
      for (i = 1; i < N; i = i + 1) {
        rhs[i * N + j] = rhs[i * N + j] - rhs[(i - 1) * N + j] / lhs[(i - 1) * N + j];
      }
      for (i = N - 2; i >= 0; i = i - 1) {
        rhs[i * N + j] = rhs[i * N + j] - rhs[(i + 1) * N + j] / lhs[(i + 1) * N + j];
      }
    }
    for (i = 0; i < N * N; i = i + 1) { u[i] = u[i] + rhs[i] / 16; }
  }
  var acc = 0;
  for (i = 0; i < N * N; i = i + 1) { acc = acc + u[i] * (i % 9 + 1); }
  print(acc);
  return acc;
}
""", "SP: scalar pentadiagonal line solves", expected_output=(168,))

_register("bt", """
// BT: block-tridiagonal solves; 2x2 blocks along grid lines.
const N = 10; const ITERS = 3;
global a[200]; global b[200]; global x[200];

fn main() -> int {
  var i; var line; var it;
  for (i = 0; i < 2 * N * N; i = i + 1) {
    a[i] = (i * 19) % 13 + 2;
    b[i] = (i * 31) % 29 - 14;
    x[i] = 0;
  }
  for (it = 0; it < ITERS; it = it + 1) {
    for (line = 0; line < N; line = line + 1) {
      // Forward elimination on 2x2 blocks.
      for (i = 1; i < N; i = i + 1) {
        var base = (line * N + i) * 2;
        var prev = (line * N + i - 1) * 2;
        b[base] = b[base] - b[prev] * a[base] / (a[prev] + 1);
        b[base + 1] = b[base + 1] - b[prev + 1] * a[base + 1] / (a[prev + 1] + 1);
      }
      // Back substitution.
      var last = (line * N + N - 1) * 2;
      x[last] = b[last] / (a[last] + 1);
      x[last + 1] = b[last + 1] / (a[last + 1] + 1);
      for (i = N - 2; i >= 0; i = i - 1) {
        var bb = (line * N + i) * 2;
        var nn = (line * N + i + 1) * 2;
        x[bb] = (b[bb] - a[bb] * x[nn]) / (a[bb] + 2);
        x[bb + 1] = (b[bb + 1] - a[bb + 1] * x[nn + 1]) / (a[bb + 1] + 2);
      }
    }
  }
  var acc = 0;
  for (i = 0; i < 2 * N * N; i = i + 1) { acc = acc + x[i] * (i % 7 + 1); }
  print(acc);
  return acc;
}
""", "BT: block-tridiagonal line solves", expected_output=(-578,))
