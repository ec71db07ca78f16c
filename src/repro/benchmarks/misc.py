"""Targeted benchmarks: fibonacci, factorial, loop-sum, tailcall, bigmem,
regex-match and zkvm-mnist (matching the paper's 'Others' group plus the
Succinct fibonacci benchmark)."""

from __future__ import annotations

from . import register

register("fibonacci", "misc", """
// Iterative Fibonacci (the Succinct Labs benchmark shape), mod 2^32.
const N = 4000;
fn main() -> int {
  var a = 0;
  var b = 1;
  var i;
  for (i = 0; i < N; i = i + 1) {
    var next = a + b;
    a = b;
    b = next;
  }
  // A remainder keeps the final value small; the paper's modified LLVM picks a
  // single remu here instead of a shift/add expansion (Section 6.1).
  var result = b % 7919;
  print(result);
  return result;
}
""", "Iterative Fibonacci sequence", expected_output=(6024,))

register("factorial", "misc", """
// Recursive and iterative factorial, compared against each other.
const N = 12;
fn fact_recursive(n) -> int {
  if (n <= 1) { return 1; }
  return n * fact_recursive(n - 1);
}
fn fact_iterative(n) -> int {
  var acc = 1;
  var i;
  for (i = 2; i <= n; i = i + 1) { acc = acc * i; }
  return acc;
}
fn main() -> int {
  var r = 0;
  var i;
  for (i = 1; i <= N; i = i + 1) {
    r = r + fact_recursive(i) - fact_iterative(i);
    r = r + fact_iterative(i) % 1000003;
  }
  print(r);
  return r;
}
""", "Recursive vs iterative factorial", expected_output=(1954750,))

register("loop-sum", "misc", """
// Simple loop-heavy summation with a few divisions sprinkled in.
const N = 3000;
fn main() -> int {
  var acc = 0;
  var i;
  for (i = 1; i <= N; i = i + 1) {
    acc = acc + i * 3 - i / 8 + (i % 5);
  }
  print(acc);
  return acc;
}
""", "Loop-heavy arithmetic summation", expected_output=(12949125,))

register("tailcall", "misc", """
// The paper's Figure 11 shape: a small worker function called in a hot loop;
// inlining it forces extra values to stay live across the inner loop.
const OUTER = 60;
fn work(x) -> int {
  var sum = x;
  var j;
  for (j = 0; j < 40; j = j + 1) {
    sum = sum * 31 + j;
  }
  return sum;
}
fn accumulate(n, acc) -> int {
  if (n == 0) { return acc; }
  return accumulate(n - 1, acc + work(n));
}
fn main() -> int {
  var total = accumulate(OUTER, 0);
  var result = total % 1000003;
  print(result);
  return result;
}
""", "Tail-recursive accumulation over a worker loop (Figure 11 shape)",
         expected_output=(637893,))

register("bigmem", "misc", """
// Allocation/paging-heavy benchmark: strided writes over a large buffer.
const SIZE = 4096;
const PASSES = 3;
global buffer[4096];
fn main() -> int {
  var p; var i;
  for (p = 0; p < PASSES; p = p + 1) {
    for (i = 0; i < SIZE; i = i + 1) {
      buffer[(i * 257 + p * 61) % SIZE] = i + p;
    }
  }
  var acc = 0;
  for (i = 0; i < SIZE; i = i + 256) { acc = acc + buffer[i]; }
  print(acc);
  return acc;
}
""", "Memory-heavy strided writes over a 16 KiB buffer",
         expected_output=(32896,))

register("regex-match", "misc", """
// Regular-expression matching: '.'-and-'*' pattern matcher (dynamic programming).
const TEXT_LEN = 24;
const PAT_LEN = 8;
global text[24];
global pattern[8];
global dp[250];

fn match_all() -> int {
  var i; var j;
  var cols = PAT_LEN + 1;
  dp[0] = 1;
  for (j = 1; j <= PAT_LEN; j = j + 1) {
    dp[j] = 0;
    if (pattern[j - 1] == 42 && j >= 2) { dp[j] = dp[j - 2]; }
  }
  for (i = 1; i <= TEXT_LEN; i = i + 1) {
    for (j = 0; j <= PAT_LEN; j = j + 1) {
      var cell = 0;
      if (j > 0) {
        var p = pattern[j - 1];
        if (p == 42) {
          // '*' matches zero of the previous element...
          if (j >= 2) { cell = dp[(i) * cols + j - 2]; }
          // ...or one more of it.
          var prev = pattern[j - 2];
          if (cell == 0 && (prev == 46 || prev == text[i - 1])) {
            cell = dp[(i - 1) * cols + j];
          }
        } else {
          if (p == 46 || p == text[i - 1]) { cell = dp[(i - 1) * cols + j - 1]; }
        }
      }
      dp[i * cols + j] = cell;
    }
  }
  return dp[TEXT_LEN * cols + PAT_LEN];
}

fn main() -> int {
  var i;
  for (i = 0; i < TEXT_LEN; i = i + 1) { text[i] = 97 + (i * 3) % 4; }
  pattern[0] = 97; pattern[1] = 42; pattern[2] = 46; pattern[3] = 42;
  pattern[4] = 100; pattern[5] = 42; pattern[6] = 46; pattern[7] = 42;
  var matched = 0;
  for (i = 0; i < 8; i = i + 1) {
    text[0] = 97 + i % 4;
    matched = matched + match_all();
  }
  print(matched);
  return matched;
}
""", "Regex matching with '.' and '*' via dynamic programming",
         expected_output=(8,))

register("zkvm-mnist", "misc", """
// Tiny fixed-point MLP inference on 7x7 'MNIST' images: 49 -> 12 -> 10.
const INPUTS = 49;
const HIDDEN = 12;
const CLASSES = 10;
const SAMPLES = 4;
global w1[588];     // 49 x 12
global w2[120];     // 12 x 10
global image[49];
global hidden[12];
global logits[10];

fn relu(x) -> int {
  if (x < 0) { return 0; }
  return x;
}

fn infer() -> int {
  var i; var j;
  for (j = 0; j < HIDDEN; j = j + 1) {
    var acc = 0;
    for (i = 0; i < INPUTS; i = i + 1) { acc = acc + image[i] * w1[i * HIDDEN + j]; }
    hidden[j] = relu(acc / 64);
  }
  for (j = 0; j < CLASSES; j = j + 1) {
    var acc2 = 0;
    for (i = 0; i < HIDDEN; i = i + 1) { acc2 = acc2 + hidden[i] * w2[i * CLASSES + j]; }
    logits[j] = acc2;
  }
  var best = 0;
  for (j = 1; j < CLASSES; j = j + 1) {
    if (logits[j] > logits[best]) { best = j; }
  }
  return best;
}

fn main() -> int {
  var i; var s;
  for (i = 0; i < INPUTS * HIDDEN; i = i + 1) { w1[i] = (i * 37) % 17 - 8; }
  for (i = 0; i < HIDDEN * CLASSES; i = i + 1) { w2[i] = (i * 53) % 13 - 6; }
  var summary = 0;
  for (s = 0; s < SAMPLES; s = s + 1) {
    for (i = 0; i < INPUTS; i = i + 1) { image[i] = ((i + s * 7) * 29) % 255; }
    var predicted = infer();
    // One crude SGD-style update of the output layer toward label s % CLASSES.
    for (i = 0; i < HIDDEN; i = i + 1) {
      w2[i * CLASSES + (s % CLASSES)] = w2[i * CLASSES + (s % CLASSES)] + hidden[i] / 128;
      w2[i * CLASSES + predicted] = w2[i * CLASSES + predicted] - hidden[i] / 128;
    }
    summary = summary * 10 + predicted;
  }
  print(summary);
  return summary;
}
""", "Fixed-point neural-network inference and update on 7x7 images",
         expected_output=(1885,))
