"""The PolyBench suite (30 kernels), ported to MiniC with reduced sizes.

The original kernels operate on doubles; zkVMs have no native floating point,
so (like many zkVM workloads) these use 32-bit integer arithmetic.  Matrices
are flattened into 1-D arrays.  Every kernel prints a checksum of its output
arrays so the harness can check behavioural equivalence across profiles.
"""

from __future__ import annotations

from . import register

# A shared helper appended to every kernel: deterministic pseudo-data and a
# checksum accumulator.
PRELUDE = """
fn poly_init(v, n, seed) {
  var i;
  for (i = 0; i < n; i = i + 1) {
    v[i] = (seed * (i + 3) * 1103515245 + 12345) % 1024 - 512;
  }
}

fn poly_checksum(v, n) -> int {
  var i;
  var acc = 0;
  for (i = 0; i < n; i = i + 1) {
    acc = acc + v[i] * (i + 1);
  }
  return acc;
}
"""


def _register(name: str, body: str, description: str,
              expected_output: tuple[int, ...]) -> None:
    register(f"polybench-{name}", "polybench", PRELUDE + body, description,
             expected_output=expected_output)


_register("2mm", """
const NI = 8; const NJ = 8; const NK = 8; const NL = 8;
global A[64]; global B[64]; global C[64]; global D[64]; global tmp[64];

fn kernel() {
  var i; var j; var k;
  for (i = 0; i < NI; i = i + 1) {
    for (j = 0; j < NJ; j = j + 1) {
      tmp[i * NJ + j] = 0;
      for (k = 0; k < NK; k = k + 1) {
        tmp[i * NJ + j] = tmp[i * NJ + j] + 3 * A[i * NK + k] * B[k * NJ + j];
      }
    }
  }
  for (i = 0; i < NI; i = i + 1) {
    for (j = 0; j < NL; j = j + 1) {
      D[i * NL + j] = D[i * NL + j] * 2;
      for (k = 0; k < NJ; k = k + 1) {
        D[i * NL + j] = D[i * NL + j] + tmp[i * NJ + k] * C[k * NL + j];
      }
    }
  }
}

fn main() -> int {
  poly_init(A, 64, 1); poly_init(B, 64, 2); poly_init(C, 64, 3); poly_init(D, 64, 4);
  kernel();
  var s = poly_checksum(D, 64);
  print(s);
  return s;
}
""", "Two matrix multiplications D = alpha*A*B*C + beta*D",
          expected_output=(-274639040,))

_register("3mm", """
const N = 8;
global A[64]; global B[64]; global C[64]; global D[64];
global E[64]; global F[64]; global G[64];

fn matmul(dst, x, y) {
  var i; var j; var k;
  for (i = 0; i < N; i = i + 1) {
    for (j = 0; j < N; j = j + 1) {
      dst[i * N + j] = 0;
      for (k = 0; k < N; k = k + 1) {
        dst[i * N + j] = dst[i * N + j] + x[i * N + k] * y[k * N + j];
      }
    }
  }
}

fn main() -> int {
  poly_init(A, 64, 1); poly_init(B, 64, 2); poly_init(C, 64, 3); poly_init(D, 64, 4);
  matmul(E, A, B);
  matmul(F, C, D);
  matmul(G, E, F);
  var s = poly_checksum(G, 64);
  print(s);
  return s;
}
""", "Three chained matrix multiplications G = (A*B)*(C*D)",
          expected_output=(1349902336,))

_register("adi", """
const N = 10; const TSTEPS = 3;
global u[100]; global v[100]; global p[100]; global q[100];

fn main() -> int {
  poly_init(u, 100, 7);
  var t; var i; var j;
  for (t = 0; t < TSTEPS; t = t + 1) {
    for (i = 1; i < N - 1; i = i + 1) {
      v[0 * N + i] = 1;
      p[i * N + 0] = 0;
      q[i * N + 0] = v[0 * N + i];
      for (j = 1; j < N - 1; j = j + 1) {
        p[i * N + j] = (0 - 3) / (2 * p[i * N + j - 1] - 6 + 1);
        q[i * N + j] = (u[j * N + i - 1] + u[j * N + i + 1] - u[j * N + i]
                        + 3 * q[i * N + j - 1]) / (2 * p[i * N + j - 1] - 6 + 1);
      }
      v[(N - 1) * N + i] = 1;
      for (j = N - 2; j >= 1; j = j - 1) {
        v[j * N + i] = p[i * N + j] * v[(j + 1) * N + i] + q[i * N + j];
      }
    }
    for (i = 1; i < N - 1; i = i + 1) {
      for (j = 1; j < N - 1; j = j + 1) {
        u[i * N + j] = (v[i * N + j] + v[(i - 1) * N + j] + v[(i + 1) * N + j]) / 3;
      }
    }
  }
  var s = poly_checksum(u, 100) + poly_checksum(v, 100);
  print(s);
  return s;
}
""", "Alternating-direction implicit solver", expected_output=(-450448,))

_register("atax", """
const M = 10; const N = 10;
global A[100]; global x[16]; global y[16]; global tmp[16];

fn main() -> int {
  poly_init(A, 100, 5); poly_init(x, N, 6);
  var i; var j;
  for (i = 0; i < N; i = i + 1) { y[i] = 0; }
  for (i = 0; i < M; i = i + 1) {
    tmp[i] = 0;
    for (j = 0; j < N; j = j + 1) { tmp[i] = tmp[i] + A[i * N + j] * x[j]; }
    for (j = 0; j < N; j = j + 1) { y[j] = y[j] + A[i * N + j] * tmp[i]; }
  }
  var s = poly_checksum(y, N);
  print(s);
  return s;
}
""", "Matrix transpose times vector product y = A^T (A x)",
          expected_output=(333789522,))

_register("bicg", """
const M = 10; const N = 10;
global A[100]; global s[16]; global q[16]; global p[16]; global r[16];

fn main() -> int {
  poly_init(A, 100, 3); poly_init(p, M, 4); poly_init(r, N, 5);
  var i; var j;
  for (i = 0; i < M; i = i + 1) { s[i] = 0; }
  for (i = 0; i < N; i = i + 1) {
    q[i] = 0;
    for (j = 0; j < M; j = j + 1) {
      s[j] = s[j] + r[i] * A[i * M + j];
      q[i] = q[i] + A[i * M + j] * p[j];
    }
  }
  var c = poly_checksum(s, M) + poly_checksum(q, N);
  print(c);
  return c;
}
""", "BiCG sub-kernel of BiCGStab", expected_output=(216425451,))

_register("cholesky", """
const N = 10;
global A[100];

fn main() -> int {
  var i; var j; var k;
  for (i = 0; i < N; i = i + 1) {
    for (j = 0; j < N; j = j + 1) { A[i * N + j] = (i * 7 + j * 3) % 19 + 1; }
    A[i * N + i] = A[i * N + i] + 400;
  }
  for (i = 0; i < N; i = i + 1) {
    for (j = 0; j < i; j = j + 1) {
      for (k = 0; k < j; k = k + 1) {
        A[i * N + j] = A[i * N + j] - A[i * N + k] * A[j * N + k];
      }
      A[i * N + j] = A[i * N + j] / (A[j * N + j] + 1);
    }
    for (k = 0; k < i; k = k + 1) {
      A[i * N + i] = A[i * N + i] - A[i * N + k] * A[i * N + k];
    }
  }
  var s = poly_checksum(A, 100);
  print(s);
  return s;
}
""", "Cholesky decomposition (integer variant)", expected_output=(222129,))

_register("correlation", """
const M = 8; const N = 10;
global data[80]; global corr[64]; global mean[8]; global stddev[8];

fn main() -> int {
  poly_init(data, 80, 11);
  var i; var j; var k;
  for (j = 0; j < M; j = j + 1) {
    mean[j] = 0;
    for (i = 0; i < N; i = i + 1) { mean[j] = mean[j] + data[i * M + j]; }
    mean[j] = mean[j] / N;
    stddev[j] = 0;
    for (i = 0; i < N; i = i + 1) {
      stddev[j] = stddev[j] + (data[i * M + j] - mean[j]) * (data[i * M + j] - mean[j]);
    }
    stddev[j] = stddev[j] / N + 1;
  }
  for (i = 0; i < N; i = i + 1) {
    for (j = 0; j < M; j = j + 1) { data[i * M + j] = data[i * M + j] - mean[j]; }
  }
  for (i = 0; i < M; i = i + 1) {
    corr[i * M + i] = 1;
    for (j = i + 1; j < M; j = j + 1) {
      corr[i * M + j] = 0;
      for (k = 0; k < N; k = k + 1) {
        corr[i * M + j] = corr[i * M + j] + data[k * M + i] * data[k * M + j];
      }
      corr[i * M + j] = corr[i * M + j] / (stddev[i] * stddev[j] + 1);
      corr[j * M + i] = corr[i * M + j];
    }
  }
  var s = poly_checksum(corr, 64);
  print(s);
  return s;
}
""", "Correlation matrix computation", expected_output=(260,))

_register("covariance", """
const M = 8; const N = 10;
global data[80]; global cov[64]; global mean[8];

fn main() -> int {
  poly_init(data, 80, 13);
  var i; var j; var k;
  for (j = 0; j < M; j = j + 1) {
    mean[j] = 0;
    for (i = 0; i < N; i = i + 1) { mean[j] = mean[j] + data[i * M + j]; }
    mean[j] = mean[j] / N;
  }
  for (i = 0; i < N; i = i + 1) {
    for (j = 0; j < M; j = j + 1) { data[i * M + j] = data[i * M + j] - mean[j]; }
  }
  for (i = 0; i < M; i = i + 1) {
    for (j = i; j < M; j = j + 1) {
      cov[i * M + j] = 0;
      for (k = 0; k < N; k = k + 1) {
        cov[i * M + j] = cov[i * M + j] + data[k * M + i] * data[k * M + j];
      }
      cov[i * M + j] = cov[i * M + j] / (N - 1);
      cov[j * M + i] = cov[i * M + j];
    }
  }
  var s = poly_checksum(cov, 64);
  print(s);
  return s;
}
""", "Covariance matrix computation", expected_output=(63416590,))

_register("deriche", """
const W = 12; const H = 8;
global img_in[96]; global img_out[96]; global y1[96]; global y2[96];

fn main() -> int {
  poly_init(img_in, 96, 17);
  var i; var j;
  for (i = 0; i < W; i = i + 1) {
    var ym1 = 0; var ym2 = 0; var xm1 = 0;
    for (j = 0; j < H; j = j + 1) {
      y1[i * H + j] = img_in[i * H + j] / 2 + xm1 / 4 + ym1 / 2 - ym2 / 4;
      xm1 = img_in[i * H + j];
      ym2 = ym1;
      ym1 = y1[i * H + j];
    }
    var yp1 = 0; var yp2 = 0; var xp1 = 0; var xp2 = 0;
    for (j = H - 1; j >= 0; j = j - 1) {
      y2[i * H + j] = xp1 / 4 + xp2 / 8 + yp1 / 2 - yp2 / 4;
      xp2 = xp1;
      xp1 = img_in[i * H + j];
      yp2 = yp1;
      yp1 = y2[i * H + j];
    }
    for (j = 0; j < H; j = j + 1) {
      img_out[i * H + j] = y1[i * H + j] + y2[i * H + j];
    }
  }
  var s = poly_checksum(img_out, 96);
  print(s);
  return s;
}
""", "Deriche recursive edge-detection filter", expected_output=(-3182980,))

_register("doitgen", """
const NR = 6; const NQ = 6; const NP = 6;
global A[216]; global C4[36]; global sum[8];

fn main() -> int {
  poly_init(A, 216, 19); poly_init(C4, 36, 20);
  var r; var q; var p; var s;
  for (r = 0; r < NR; r = r + 1) {
    for (q = 0; q < NQ; q = q + 1) {
      for (p = 0; p < NP; p = p + 1) {
        sum[p] = 0;
        for (s = 0; s < NP; s = s + 1) {
          sum[p] = sum[p] + A[(r * NQ + q) * NP + s] * C4[s * NP + p];
        }
      }
      for (p = 0; p < NP; p = p + 1) { A[(r * NQ + q) * NP + p] = sum[p]; }
    }
  }
  var c = poly_checksum(A, 216);
  print(c);
  return c;
}
""", "Multi-resolution analysis kernel (MADNESS)",
          expected_output=(-252017692,))

_register("durbin", """
const N = 16;
global r[16]; global y[16]; global z[16];

fn main() -> int {
  poly_init(r, N, 23);
  var i; var k;
  y[0] = 0 - r[0];
  var beta = 1; var alpha = 0 - r[0];
  for (k = 1; k < N; k = k + 1) {
    beta = (1 - (alpha * alpha) / 256) * beta + 1;
    var sum = 0;
    for (i = 0; i < k; i = i + 1) { sum = sum + r[k - i - 1] * y[i]; }
    alpha = 0 - (r[k] + sum) / (beta + 1);
    for (i = 0; i < k; i = i + 1) { z[i] = y[i] + alpha * y[k - i - 1] / 64; }
    for (i = 0; i < k; i = i + 1) { y[i] = z[i]; }
    y[k] = alpha;
  }
  var s = poly_checksum(y, N);
  print(s);
  return s;
}
""", "Toeplitz system solver (Durbin recursion)", expected_output=(7996,))

_register("fdtd-2d", """
const NX = 10; const NY = 8; const TSTEPS = 3;
global ex[80]; global ey[80]; global hz[80];

fn main() -> int {
  poly_init(ex, 80, 29); poly_init(ey, 80, 30); poly_init(hz, 80, 31);
  var t; var i; var j;
  for (t = 0; t < TSTEPS; t = t + 1) {
    for (j = 0; j < NY; j = j + 1) { ey[j] = t; }
    for (i = 1; i < NX; i = i + 1) {
      for (j = 0; j < NY; j = j + 1) {
        ey[i * NY + j] = ey[i * NY + j] - (hz[i * NY + j] - hz[(i - 1) * NY + j]) / 2;
      }
    }
    for (i = 0; i < NX; i = i + 1) {
      for (j = 1; j < NY; j = j + 1) {
        ex[i * NY + j] = ex[i * NY + j] - (hz[i * NY + j] - hz[i * NY + j - 1]) / 2;
      }
    }
    for (i = 0; i < NX - 1; i = i + 1) {
      for (j = 0; j < NY - 1; j = j + 1) {
        hz[i * NY + j] = hz[i * NY + j]
          - (ex[i * NY + j + 1] - ex[i * NY + j] + ey[(i + 1) * NY + j] - ey[i * NY + j]) * 7 / 10;
      }
    }
  }
  var s = poly_checksum(hz, 80);
  print(s);
  return s;
}
""", "2-D finite-difference time-domain kernel", expected_output=(-901529,))

_register("floyd-warshall", """
const N = 12;
global path[144];

fn main() -> int {
  var i; var j; var k;
  for (i = 0; i < N; i = i + 1) {
    for (j = 0; j < N; j = j + 1) {
      path[i * N + j] = (i * j) % 7 + 1;
      if (((i + j) % 13) == 0) { path[i * N + j] = 999; }
    }
  }
  for (k = 0; k < N; k = k + 1) {
    for (i = 0; i < N; i = i + 1) {
      for (j = 0; j < N; j = j + 1) {
        var through = path[i * N + k] + path[k * N + j];
        if (through < path[i * N + j]) { path[i * N + j] = through; }
      }
    }
  }
  var s = poly_checksum(path, 144);
  print(s);
  return s;
}
""", "All-pairs shortest paths (Floyd-Warshall)", expected_output=(18382,))

_register("gemm", """
const NI = 10; const NJ = 10; const NK = 10;
global A[100]; global B[100]; global C[100];

fn main() -> int {
  poly_init(A, 100, 37); poly_init(B, 100, 38); poly_init(C, 100, 39);
  var i; var j; var k;
  for (i = 0; i < NI; i = i + 1) {
    for (j = 0; j < NJ; j = j + 1) {
      C[i * NJ + j] = C[i * NJ + j] * 2;
      for (k = 0; k < NK; k = k + 1) {
        C[i * NJ + j] = C[i * NJ + j] + 3 * A[i * NK + k] * B[k * NJ + j];
      }
    }
  }
  var s = poly_checksum(C, 100);
  print(s);
  return s;
}
""", "General matrix multiplication C = alpha*A*B + beta*C",
          expected_output=(768963402,))

_register("gemver", """
const N = 12;
global A[144]; global u1[16]; global v1[16]; global u2[16]; global v2[16];
global w[16]; global x[16]; global y[16]; global z[16];

fn main() -> int {
  poly_init(A, 144, 41); poly_init(u1, N, 42); poly_init(v1, N, 43);
  poly_init(u2, N, 44); poly_init(v2, N, 45); poly_init(y, N, 46); poly_init(z, N, 47);
  var i; var j;
  for (i = 0; i < N; i = i + 1) {
    for (j = 0; j < N; j = j + 1) {
      A[i * N + j] = A[i * N + j] + u1[i] * v1[j] + u2[i] * v2[j];
    }
  }
  for (i = 0; i < N; i = i + 1) {
    x[i] = 0;
    for (j = 0; j < N; j = j + 1) { x[i] = x[i] + 3 * A[j * N + i] * y[j]; }
  }
  for (i = 0; i < N; i = i + 1) { x[i] = x[i] + z[i]; }
  for (i = 0; i < N; i = i + 1) {
    w[i] = 0;
    for (j = 0; j < N; j = j + 1) { w[i] = w[i] + 2 * A[i * N + j] * x[j]; }
  }
  var s = poly_checksum(w, N);
  print(s);
  return s;
}
""", "Vector multiplication and matrix addition (BLAS gemver)",
          expected_output=(1837254616,))

_register("gesummv", """
const N = 12;
global A[144]; global B[144]; global x[16]; global y[16]; global tmp[16];

fn main() -> int {
  poly_init(A, 144, 51); poly_init(B, 144, 52); poly_init(x, N, 53);
  var i; var j;
  for (i = 0; i < N; i = i + 1) {
    tmp[i] = 0;
    y[i] = 0;
    for (j = 0; j < N; j = j + 1) {
      tmp[i] = tmp[i] + A[i * N + j] * x[j];
      y[i] = y[i] + B[i * N + j] * x[j];
    }
    y[i] = 3 * tmp[i] + 2 * y[i];
  }
  var s = poly_checksum(y, N);
  print(s);
  return s;
}
""", "Scalar, vector and matrix multiplication (BLAS gesummv)",
          expected_output=(1158915484,))

_register("gramschmidt", """
const M = 8; const N = 8;
global A[64]; global R[64]; global Q[64];

fn isqrt(x) -> int {
  if (x <= 0) { return 1; }
  var guess = x;
  var i;
  for (i = 0; i < 12; i = i + 1) { guess = (guess + x / guess) / 2; }
  if (guess <= 0) { return 1; }
  return guess;
}

fn main() -> int {
  poly_init(A, 64, 57);
  var i; var j; var k;
  for (k = 0; k < N; k = k + 1) {
    var nrm = 0;
    for (i = 0; i < M; i = i + 1) { nrm = nrm + A[i * N + k] * A[i * N + k]; }
    R[k * N + k] = isqrt(nrm);
    for (i = 0; i < M; i = i + 1) { Q[i * N + k] = A[i * N + k] * 16 / R[k * N + k]; }
    for (j = k + 1; j < N; j = j + 1) {
      R[k * N + j] = 0;
      for (i = 0; i < M; i = i + 1) { R[k * N + j] = R[k * N + j] + Q[i * N + k] * A[i * N + j]; }
      for (i = 0; i < M; i = i + 1) {
        A[i * N + j] = A[i * N + j] - Q[i * N + k] * R[k * N + j] / 256;
      }
    }
  }
  var s = poly_checksum(R, 64) + poly_checksum(Q, 64);
  print(s);
  return s;
}
""", "Gram-Schmidt orthonormalization (fixed point)",
          expected_output=(4077261,))

_register("heat-3d", """
const N = 6; const TSTEPS = 3;
global A[216]; global B[216];

fn main() -> int {
  poly_init(A, 216, 61); poly_init(B, 216, 62);
  var t; var i; var j; var k;
  for (t = 0; t < TSTEPS; t = t + 1) {
    for (i = 1; i < N - 1; i = i + 1) {
      for (j = 1; j < N - 1; j = j + 1) {
        for (k = 1; k < N - 1; k = k + 1) {
          B[(i * N + j) * N + k] =
            (A[((i + 1) * N + j) * N + k] - 2 * A[(i * N + j) * N + k] + A[((i - 1) * N + j) * N + k]) / 8
            + (A[(i * N + j + 1) * N + k] - 2 * A[(i * N + j) * N + k] + A[(i * N + j - 1) * N + k]) / 8
            + (A[(i * N + j) * N + k + 1] - 2 * A[(i * N + j) * N + k] + A[(i * N + j) * N + k - 1]) / 8
            + A[(i * N + j) * N + k];
        }
      }
    }
    for (i = 1; i < N - 1; i = i + 1) {
      for (j = 1; j < N - 1; j = j + 1) {
        for (k = 1; k < N - 1; k = k + 1) {
          A[(i * N + j) * N + k] = B[(i * N + j) * N + k];
        }
      }
    }
  }
  var s = poly_checksum(A, 216);
  print(s);
  return s;
}
""", "3-D heat equation stencil", expected_output=(-11411506,))

_register("jacobi-1d", """
const N = 48; const TSTEPS = 6;
global A[48]; global B[48];

fn main() -> int {
  poly_init(A, N, 67); poly_init(B, N, 68);
  var t; var i;
  for (t = 0; t < TSTEPS; t = t + 1) {
    for (i = 1; i < N - 1; i = i + 1) { B[i] = (A[i - 1] + A[i] + A[i + 1]) / 3; }
    for (i = 1; i < N - 1; i = i + 1) { A[i] = (B[i - 1] + B[i] + B[i + 1]) / 3; }
  }
  var s = poly_checksum(A, N);
  print(s);
  return s;
}
""", "1-D Jacobi stencil", expected_output=(-628772,))

_register("jacobi-2d", """
const N = 10; const TSTEPS = 3;
global A[100]; global B[100];

fn main() -> int {
  poly_init(A, 100, 71); poly_init(B, 100, 72);
  var t; var i; var j;
  for (t = 0; t < TSTEPS; t = t + 1) {
    for (i = 1; i < N - 1; i = i + 1) {
      for (j = 1; j < N - 1; j = j + 1) {
        B[i * N + j] = (A[i * N + j] + A[i * N + j - 1] + A[i * N + j + 1]
                        + A[(i + 1) * N + j] + A[(i - 1) * N + j]) / 5;
      }
    }
    for (i = 1; i < N - 1; i = i + 1) {
      for (j = 1; j < N - 1; j = j + 1) {
        A[i * N + j] = (B[i * N + j] + B[i * N + j - 1] + B[i * N + j + 1]
                        + B[(i + 1) * N + j] + B[(i - 1) * N + j]) / 5;
      }
    }
  }
  var s = poly_checksum(A, 100);
  print(s);
  return s;
}
""", "2-D Jacobi stencil", expected_output=(-2296263,))

_register("lu", """
const N = 10;
global A[100];

fn main() -> int {
  var i; var j; var k;
  for (i = 0; i < N; i = i + 1) {
    for (j = 0; j < N; j = j + 1) { A[i * N + j] = (i * 5 + j * 11) % 23 + 1; }
    A[i * N + i] = A[i * N + i] + 300;
  }
  for (i = 0; i < N; i = i + 1) {
    for (j = 0; j < i; j = j + 1) {
      for (k = 0; k < j; k = k + 1) { A[i * N + j] = A[i * N + j] - A[i * N + k] * A[k * N + j]; }
      A[i * N + j] = A[i * N + j] / (A[j * N + j] + 1);
    }
    for (j = i; j < N; j = j + 1) {
      for (k = 0; k < i; k = k + 1) { A[i * N + j] = A[i * N + j] - A[i * N + k] * A[k * N + j]; }
    }
  }
  var s = poly_checksum(A, 100);
  print(s);
  return s;
}
""", "LU decomposition without pivoting", expected_output=(175959,))

_register("ludcmp", """
const N = 10;
global A[100]; global b[16]; global x[16]; global y[16];

fn main() -> int {
  var i; var j; var k;
  for (i = 0; i < N; i = i + 1) {
    b[i] = (i * 13) % 29 + 1;
    for (j = 0; j < N; j = j + 1) { A[i * N + j] = (i * 3 + j * 7) % 17 + 1; }
    A[i * N + i] = A[i * N + i] + 250;
  }
  for (i = 0; i < N; i = i + 1) {
    for (j = 0; j < i; j = j + 1) {
      var w1 = A[i * N + j];
      for (k = 0; k < j; k = k + 1) { w1 = w1 - A[i * N + k] * A[k * N + j]; }
      A[i * N + j] = w1 / (A[j * N + j] + 1);
    }
    for (j = i; j < N; j = j + 1) {
      var w2 = A[i * N + j];
      for (k = 0; k < i; k = k + 1) { w2 = w2 - A[i * N + k] * A[k * N + j]; }
      A[i * N + j] = w2;
    }
  }
  for (i = 0; i < N; i = i + 1) {
    var w3 = b[i];
    for (j = 0; j < i; j = j + 1) { w3 = w3 - A[i * N + j] * y[j]; }
    y[i] = w3;
  }
  for (i = N - 1; i >= 0; i = i - 1) {
    var w4 = y[i];
    for (j = i + 1; j < N; j = j + 1) { w4 = w4 - A[i * N + j] * x[j]; }
    x[i] = w4 / (A[i * N + i] + 1);
  }
  var s = poly_checksum(x, N);
  print(s);
  return s;
}
""", "LU decomposition followed by forward/backward substitution",
          expected_output=(0,))

_register("mvt", """
const N = 12;
global A[144]; global x1[16]; global x2[16]; global y1[16]; global y2[16];

fn main() -> int {
  poly_init(A, 144, 83); poly_init(x1, N, 84); poly_init(x2, N, 85);
  poly_init(y1, N, 86); poly_init(y2, N, 87);
  var i; var j;
  for (i = 0; i < N; i = i + 1) {
    for (j = 0; j < N; j = j + 1) { x1[i] = x1[i] + A[i * N + j] * y1[j]; }
  }
  for (i = 0; i < N; i = i + 1) {
    for (j = 0; j < N; j = j + 1) { x2[i] = x2[i] + A[j * N + i] * y2[j]; }
  }
  var s = poly_checksum(x1, N) + poly_checksum(x2, N);
  print(s);
  return s;
}
""", "Matrix-vector product and transpose", expected_output=(378661022,))

_register("nussinov", """
const N = 14;
global seq[16]; global table[196];

fn maxval(a, b) -> int {
  if (a > b) { return a; }
  return b;
}

fn main() -> int {
  var i; var j; var k;
  for (i = 0; i < N; i = i + 1) { seq[i] = (i * 7 + 3) % 4; }
  for (i = N - 1; i >= 0; i = i - 1) {
    for (j = i + 1; j < N; j = j + 1) {
      if (j - 1 >= 0) { table[i * N + j] = maxval(table[i * N + j], table[i * N + j - 1]); }
      if (i + 1 < N)  { table[i * N + j] = maxval(table[i * N + j], table[(i + 1) * N + j]); }
      if (j - 1 >= 0 && i + 1 < N) {
        var match = 0;
        if (seq[i] + seq[j] == 3) { match = 1; }
        table[i * N + j] = maxval(table[i * N + j], table[(i + 1) * N + j - 1] + match);
      }
      for (k = i + 1; k < j; k = k + 1) {
        table[i * N + j] = maxval(table[i * N + j], table[i * N + k] + table[(k + 1) * N + j]);
      }
    }
  }
  var s = table[0 * N + N - 1] * 1000 + poly_checksum(table, 196) % 1000;
  print(s);
  return s;
}
""", "RNA secondary-structure prediction (Nussinov dynamic programming)",
          expected_output=(6612,))

_register("seidel-2d", """
const N = 10; const TSTEPS = 3;
global A[100];

fn main() -> int {
  poly_init(A, 100, 91);
  var t; var i; var j;
  for (t = 0; t < TSTEPS; t = t + 1) {
    for (i = 1; i < N - 1; i = i + 1) {
      for (j = 1; j < N - 1; j = j + 1) {
        A[i * N + j] = (A[(i - 1) * N + j - 1] + A[(i - 1) * N + j] + A[(i - 1) * N + j + 1]
                        + A[i * N + j - 1] + A[i * N + j] + A[i * N + j + 1]
                        + A[(i + 1) * N + j - 1] + A[(i + 1) * N + j] + A[(i + 1) * N + j + 1]) / 9;
      }
    }
  }
  var s = poly_checksum(A, 100);
  print(s);
  return s;
}
""", "2-D Gauss-Seidel stencil", expected_output=(-2574490,))

_register("symm", """
const M = 8; const N = 8;
global A[64]; global B[64]; global C[64];

fn main() -> int {
  poly_init(A, 64, 93); poly_init(B, 64, 94); poly_init(C, 64, 95);
  var i; var j; var k;
  for (i = 0; i < M; i = i + 1) {
    for (j = 0; j < N; j = j + 1) {
      var temp2 = 0;
      for (k = 0; k < i; k = k + 1) {
        C[k * N + j] = C[k * N + j] + 2 * B[i * N + j] * A[i * M + k];
        temp2 = temp2 + B[k * N + j] * A[i * M + k];
      }
      C[i * N + j] = C[i * N + j] + 2 * B[i * N + j] * A[i * M + i] + 2 * temp2;
    }
  }
  var s = poly_checksum(C, 64);
  print(s);
  return s;
}
""", "Symmetric matrix multiplication (BLAS symm)",
          expected_output=(-1134457184,))

_register("syr2k", """
const N = 8; const M = 8;
global A[64]; global B[64]; global C[64];

fn main() -> int {
  poly_init(A, 64, 97); poly_init(B, 64, 98); poly_init(C, 64, 99);
  var i; var j; var k;
  for (i = 0; i < N; i = i + 1) {
    for (j = 0; j <= i; j = j + 1) { C[i * N + j] = C[i * N + j] * 2; }
    for (k = 0; k < M; k = k + 1) {
      for (j = 0; j <= i; j = j + 1) {
        C[i * N + j] = C[i * N + j] + A[j * M + k] * B[i * M + k] + B[j * M + k] * A[i * M + k];
      }
    }
  }
  var s = poly_checksum(C, 64);
  print(s);
  return s;
}
""", "Symmetric rank-2k update (BLAS syr2k)", expected_output=(-1631417044,))

_register("syrk", """
const N = 8; const M = 8;
global A[64]; global C[64];

fn main() -> int {
  poly_init(A, 64, 101); poly_init(C, 64, 102);
  var i; var j; var k;
  for (i = 0; i < N; i = i + 1) {
    for (j = 0; j <= i; j = j + 1) { C[i * N + j] = C[i * N + j] * 2; }
    for (k = 0; k < M; k = k + 1) {
      for (j = 0; j <= i; j = j + 1) {
        C[i * N + j] = C[i * N + j] + 3 * A[i * M + k] * A[j * M + k];
      }
    }
  }
  var s = poly_checksum(C, 64);
  print(s);
  return s;
}
""", "Symmetric rank-k update (BLAS syrk)", expected_output=(-1743539616,))

_register("trisolv", """
const N = 14;
global L[196]; global b[16]; global x[16];

fn main() -> int {
  var i; var j;
  for (i = 0; i < N; i = i + 1) {
    b[i] = (i * 19) % 31 + 1;
    for (j = 0; j <= i; j = j + 1) { L[i * N + j] = (i * 3 + j) % 9 + 1; }
    L[i * N + i] = L[i * N + i] + 20;
  }
  for (i = 0; i < N; i = i + 1) {
    x[i] = b[i];
    for (j = 0; j < i; j = j + 1) { x[i] = x[i] - L[i * N + j] * x[j]; }
    x[i] = x[i] / L[i * N + i];
  }
  var s = poly_checksum(x, N);
  print(s);
  return s;
}
""", "Triangular system solve", expected_output=(13,))

_register("trmm", """
const M = 8; const N = 8;
global A[64]; global B[64];

fn main() -> int {
  poly_init(A, 64, 103); poly_init(B, 64, 104);
  var i; var j; var k;
  for (i = 0; i < M; i = i + 1) {
    for (j = 0; j < N; j = j + 1) {
      for (k = i + 1; k < M; k = k + 1) {
        B[i * N + j] = B[i * N + j] + A[k * M + i] * B[k * N + j];
      }
      B[i * N + j] = 3 * B[i * N + j];
    }
  }
  var s = poly_checksum(B, 64);
  print(s);
  return s;
}
""", "Triangular matrix multiplication (BLAS trmm)",
          expected_output=(-110309152,))
