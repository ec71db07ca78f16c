"""Reduced stand-ins for the three SPEC CPU 2017 benchmarks the paper uses
(605.mcf_s, 619.lbm_s, 631.deepsjeng_s)."""

from __future__ import annotations

from . import register

register("spec-605", "spec", """
// 605.mcf stand-in: shortest-path relaxation over a sparse network
// (min-cost-flow style pointer-chasing and relaxation loops).
const NODES = 48;
const EDGES = 144;
const ROUNDS = 6;
global edge_from[144]; global edge_to[144]; global edge_cost[144];
global dist[48];

fn main() -> int {
  var i; var r;
  for (i = 0; i < EDGES; i = i + 1) {
    edge_from[i] = (i * 7) % NODES;
    edge_to[i] = (i * 13 + 5) % NODES;
    edge_cost[i] = (i * 11) % 29 + 1;
  }
  for (i = 0; i < NODES; i = i + 1) { dist[i] = 999999; }
  dist[0] = 0;
  for (r = 0; r < ROUNDS; r = r + 1) {
    for (i = 0; i < EDGES; i = i + 1) {
      var candidate = dist[edge_from[i]] + edge_cost[i];
      if (candidate < dist[edge_to[i]]) { dist[edge_to[i]] = candidate; }
    }
  }
  var acc = 0;
  for (i = 0; i < NODES; i = i + 1) {
    var d = dist[i];
    if (d > 100000) { d = 0 - 1; }
    acc = acc + d * (i + 1);
  }
  print(acc);
  return acc;
}
""", "mcf-style network relaxation", expected_output=(52462,))

register("spec-619", "spec", """
// 619.lbm stand-in: 1-D lattice-Boltzmann stream-and-collide passes.
const CELLS = 96;
const STEPS = 6;
global f0[96]; global f1[96]; global f2[96];
global n0[96]; global n1[96]; global n2[96];

fn main() -> int {
  var i; var t;
  for (i = 0; i < CELLS; i = i + 1) {
    f0[i] = (i * 17) % 41 + 10;
    f1[i] = (i * 23) % 37 + 10;
    f2[i] = (i * 31) % 43 + 10;
  }
  for (t = 0; t < STEPS; t = t + 1) {
    for (i = 0; i < CELLS; i = i + 1) {
      // streaming
      n0[i] = f0[i];
      n1[i] = f1[(i + CELLS - 1) % CELLS];
      n2[i] = f2[(i + 1) % CELLS];
    }
    for (i = 0; i < CELLS; i = i + 1) {
      // collision: relax toward equilibrium (density/3 each).
      var rho = n0[i] + n1[i] + n2[i];
      var eq = rho / 3;
      f0[i] = n0[i] + (eq - n0[i]) / 2;
      f1[i] = n1[i] + (eq - n1[i]) / 2;
      f2[i] = n2[i] + (eq - n2[i]) / 2;
    }
  }
  var acc = 0;
  for (i = 0; i < CELLS; i = i + 1) { acc = acc + f0[i] + 2 * f1[i] + 3 * f2[i]; }
  print(acc);
  return acc;
}
""", "lbm-style stream/collide stencil", expected_output=(16547,))

register("spec-631", "spec", """
// 631.deepsjeng stand-in: fixed-depth alpha-beta search over a deterministic
// synthetic game tree with a small evaluation function.
const DEPTH = 6;
const BRANCH = 4;

fn evaluate(state) -> int {
  var v = (state * 2654435761) % 201 - 100;
  return v;
}

fn search(state, depth, alpha, beta, maximizing) -> int {
  if (depth == 0) { return evaluate(state); }
  var i;
  if (maximizing == 1) {
    var best = 0 - 1000000;
    for (i = 0; i < BRANCH; i = i + 1) {
      var child = state * BRANCH + i + 1;
      var score = search(child, depth - 1, alpha, beta, 0);
      if (score > best) { best = score; }
      if (best > alpha) { alpha = best; }
      if (beta <= alpha) { return best; }
    }
    return best;
  }
  var worst = 1000000;
  for (i = 0; i < BRANCH; i = i + 1) {
    var child2 = state * BRANCH + i + 1;
    var score2 = search(child2, depth - 1, alpha, beta, 1);
    if (score2 < worst) { worst = score2; }
    if (worst < beta) { beta = worst; }
    if (beta <= alpha) { return worst; }
  }
  return worst;
}

fn main() -> int {
  var total = 0;
  var root;
  for (root = 0; root < 3; root = root + 1) {
    total = total + search(root, DEPTH, 0 - 1000000, 1000000, 1);
  }
  print(total);
  return total;
}
""", "deepsjeng-style alpha-beta game-tree search", expected_output=(-646,))
