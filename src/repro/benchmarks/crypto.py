"""Cryptography benchmarks (a16z crypto / Succinct Labs style workloads).

``sha256``/``sha2-bench``/``sha2-chain`` implement the real SHA-256
compression function in guest code (no precompile), which is the dominant
zkVM workload shape.  ``sha3-bench``/``sha3-chain`` use a reduced, 32-bit
Keccak-style permutation (the real Keccak-f[1600] needs 64-bit lanes, which
RV32 guests emulate; the stand-in preserves the rotate/xor-heavy structure).
``keccak256``, ``ecdsa-verify`` and ``eddsa-verify`` exercise the precompile
path, as the paper's versions do.
"""

from __future__ import annotations

from . import register
from ..zkvm.precompiles import make_signature

# Real SHA-256 (single 16-word block per call), shared by several benchmarks.
SHA256_LIB = """
global sha_k[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
  0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
  0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
  0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
  0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
  0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2 };
global sha_h[8];
global sha_w[64];

fn rotr(x, n) -> int {
  return (x >>> n) | (x << (32 - n));
}

fn sha_reset() {
  sha_h[0] = 0x6a09e667; sha_h[1] = 0xbb67ae85; sha_h[2] = 0x3c6ef372; sha_h[3] = 0xa54ff53a;
  sha_h[4] = 0x510e527f; sha_h[5] = 0x9b05688c; sha_h[6] = 0x1f83d9ab; sha_h[7] = 0x5be0cd19;
}

fn sha_compress(block) {
  var t;
  for (t = 0; t < 16; t = t + 1) { sha_w[t] = block[t]; }
  for (t = 16; t < 64; t = t + 1) {
    var s0 = rotr(sha_w[t - 15], 7) ^ rotr(sha_w[t - 15], 18) ^ (sha_w[t - 15] >>> 3);
    var s1 = rotr(sha_w[t - 2], 17) ^ rotr(sha_w[t - 2], 19) ^ (sha_w[t - 2] >>> 10);
    sha_w[t] = sha_w[t - 16] + s0 + sha_w[t - 7] + s1;
  }
  var a = sha_h[0]; var b = sha_h[1]; var c = sha_h[2]; var d = sha_h[3];
  var e = sha_h[4]; var f = sha_h[5]; var g = sha_h[6]; var h = sha_h[7];
  for (t = 0; t < 64; t = t + 1) {
    var e1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    var ch = (e & f) ^ (~e & g);
    var temp1 = h + e1 + ch + sha_k[t] + sha_w[t];
    var e0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    var maj = (a & b) ^ (a & c) ^ (b & c);
    var temp2 = e0 + maj;
    h = g; g = f; f = e;
    e = d + temp1;
    d = c; c = b; b = a;
    a = temp1 + temp2;
  }
  sha_h[0] = sha_h[0] + a; sha_h[1] = sha_h[1] + b; sha_h[2] = sha_h[2] + c; sha_h[3] = sha_h[3] + d;
  sha_h[4] = sha_h[4] + e; sha_h[5] = sha_h[5] + f; sha_h[6] = sha_h[6] + g; sha_h[7] = sha_h[7] + h;
}
"""

register("sha256", "crypto", SHA256_LIB + """
global message[16];

fn main() -> int {
  var i;
  for (i = 0; i < 16; i = i + 1) { message[i] = i * 0x01010101 + 7; }
  sha_reset();
  sha_compress(message);
  var digest = sha_h[0] ^ sha_h[7];
  print(digest);
  return digest;
}
""", "SHA-256 compression of one block, implemented in guest code",
         expected_output=(-1707578359,))

register("sha2-bench", "crypto", SHA256_LIB + """
const BLOCKS = 4;
global message[16];

fn main() -> int {
  var b; var i;
  sha_reset();
  for (b = 0; b < BLOCKS; b = b + 1) {
    for (i = 0; i < 16; i = i + 1) { message[i] = (b * 16 + i) * 0x9e3779b9 + 1; }
    sha_compress(message);
  }
  var digest = sha_h[0] ^ sha_h[3] ^ sha_h[7];
  print(digest);
  return digest;
}
""", "SHA-256 over a multi-block message (software)",
         expected_output=(1078388734,))

register("sha2-chain", "crypto", SHA256_LIB + """
const ROUNDS = 6;
global message[16];

fn main() -> int {
  var r; var i;
  for (i = 0; i < 16; i = i + 1) { message[i] = i + 1; }
  for (r = 0; r < ROUNDS; r = r + 1) {
    sha_reset();
    sha_compress(message);
    for (i = 0; i < 8; i = i + 1) { message[i] = sha_h[i]; message[i + 8] = sha_h[i] ^ r; }
  }
  var digest = sha_h[0] ^ sha_h[4];
  print(digest);
  return digest;
}
""", "Iterated (chained) SHA-256 hashing (software)",
         expected_output=(56417653,))

# A 32-bit Keccak-style permutation used by the sha3 software benchmarks.
KECCAK_LIB = """
const ROUNDS = 12;
global state[25];
global round_constants[12] = {
  0x00000001, 0x00008082, 0x0000808a, 0x80008000, 0x0000808b, 0x80000001,
  0x80008081, 0x00008009, 0x0000008a, 0x00000088, 0x80008009, 0x8000000a };

fn rotl(x, n) -> int {
  return (x << n) | (x >>> (32 - n));
}

fn keccak_permute() {
  var round; var x; var y;
  var c[5];
  var d[5];
  for (round = 0; round < ROUNDS; round = round + 1) {
    // theta
    for (x = 0; x < 5; x = x + 1) {
      c[x] = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
    }
    for (x = 0; x < 5; x = x + 1) {
      d[x] = c[(x + 4) % 5] ^ rotl(c[(x + 1) % 5], 1);
      for (y = 0; y < 5; y = y + 1) {
        state[y * 5 + x] = state[y * 5 + x] ^ d[x];
      }
    }
    // rho + pi (simplified rotation schedule)
    for (x = 0; x < 25; x = x + 1) {
      state[x] = rotl(state[x], (x * 7 + round) % 32);
    }
    // chi
    for (y = 0; y < 5; y = y + 1) {
      for (x = 0; x < 5; x = x + 1) {
        c[x] = state[y * 5 + x];
      }
      for (x = 0; x < 5; x = x + 1) {
        state[y * 5 + x] = c[x] ^ (~c[(x + 1) % 5] & c[(x + 2) % 5]);
      }
    }
    // iota
    state[0] = state[0] ^ round_constants[round];
  }
}
"""

register("sha3-bench", "crypto", KECCAK_LIB + """
const ABSORB = 4;
fn main() -> int {
  var i; var blk;
  for (i = 0; i < 25; i = i + 1) { state[i] = 0; }
  for (blk = 0; blk < ABSORB; blk = blk + 1) {
    for (i = 0; i < 16; i = i + 1) { state[i] = state[i] ^ (blk * 16 + i + 1) * 0x9e3779b9; }
    keccak_permute();
  }
  var digest = state[0] ^ state[1] ^ state[2];
  print(digest);
  return digest;
}
""", "Keccak-style sponge absorbing a multi-block message (software)",
         expected_output=(595531508,))

register("sha3-chain", "crypto", KECCAK_LIB + """
const CHAIN = 6;
fn main() -> int {
  var i; var r;
  for (i = 0; i < 25; i = i + 1) { state[i] = i + 1; }
  for (r = 0; r < CHAIN; r = r + 1) {
    keccak_permute();
    state[0] = state[0] ^ r;
  }
  var digest = state[0] ^ state[24];
  print(digest);
  return digest;
}
""", "Iterated Keccak-style permutation (software)",
         expected_output=(-1521186750,))

register("keccak256", "crypto", """
// Chained Keccak-256 hashing through the zkVM precompile.
const ROUNDS = 8;
global buffer[16];
global digest[8];

fn main() -> int {
  var i; var r;
  for (i = 0; i < 16; i = i + 1) { buffer[i] = i * 2654435761 + 99; }
  for (r = 0; r < ROUNDS; r = r + 1) {
    keccak256(buffer, 16, digest);
    for (i = 0; i < 8; i = i + 1) { buffer[i] = digest[i]; buffer[i + 8] = digest[i] ^ r; }
  }
  var out = digest[0] ^ digest[7];
  print(out);
  return out;
}
""", "Keccak-256 chained hashing via the precompile", uses_precompile=True,
         expected_output=(-1425607791,))

register("merkle", "crypto", SHA256_LIB + """
// Merkle tree over 8 leaves with an inclusion-proof check (software SHA-256).
const LEAVES = 8;
global leaves[128];
global tree[256];
global block[16];

fn hash_pair(left_index, right_index, out_index) {
  var i;
  for (i = 0; i < 8; i = i + 1) {
    block[i] = tree[left_index * 8 + i];
    block[i + 8] = tree[right_index * 8 + i];
  }
  sha_reset();
  sha_compress(block);
  for (i = 0; i < 8; i = i + 1) { tree[out_index * 8 + i] = sha_h[i]; }
}

fn main() -> int {
  var i; var level;
  // Leaf hashes live in tree[8..16); internal nodes fill tree[1..8).
  for (i = 0; i < LEAVES; i = i + 1) {
    var j;
    for (j = 0; j < 8; j = j + 1) { block[j] = i * 8 + j + 1; block[j + 8] = 0; }
    sha_reset();
    sha_compress(block);
    for (j = 0; j < 8; j = j + 1) { tree[(LEAVES + i) * 8 + j] = sha_h[j]; }
  }
  for (i = LEAVES - 1; i >= 1; i = i - 1) {
    hash_pair(2 * i, 2 * i + 1, i);
  }
  var root = tree[8] ^ tree[15];
  print(root);
  return root;
}
""", "Merkle tree construction and root computation (software SHA-256)",
         expected_output=(-105468536,))

# Build valid stand-in signatures at benchmark-definition time so the guest's
# verification succeeds (mirrors embedding a known-good signature in the guest).
_MESSAGE = [0x11111111 * (i + 1) & 0xFFFFFFFF for i in range(8)]
_KEY = [0x22222222 ^ (i * 0x01010101) for i in range(8)]
_ECDSA_SIG = make_signature(_MESSAGE, _KEY, "ecdsa")
_EDDSA_SIG = make_signature(_MESSAGE, _KEY, "eddsa")


def _words(values: list[int]) -> str:
    return ", ".join(str(v) for v in values)


register("ecdsa-verify", "crypto", f"""
// ECDSA signature verification via the zkVM precompile.
const CHECKS = 4;
global message[8] = {{ {_words(_MESSAGE)} }};
global key[8] = {{ {_words(_KEY)} }};
global signature[8] = {{ {_words(_ECDSA_SIG)} }};
global scratch[8];

fn main() -> int {{
  var ok = 0;
  var i;
  for (i = 0; i < CHECKS; i = i + 1) {{
    // Hash the message first (as real verifiers do), then verify.
    sha256(message, 8, scratch);
    ok = ok + ecdsa_verify(message, key, signature);
  }}
  print(ok);
  return ok;
}}
""", "ECDSA verification through the precompile", uses_precompile=True,
         expected_output=(4,))

register("eddsa-verify", "crypto", f"""
// Ed25519-style signature verification via the zkVM precompile.
const CHECKS = 4;
global message[8] = {{ {_words(_MESSAGE)} }};
global key[8] = {{ {_words(_KEY)} }};
global signature[8] = {{ {_words(_EDDSA_SIG)} }};
global scratch[8];

fn main() -> int {{
  var ok = 0;
  var i;
  for (i = 0; i < CHECKS; i = i + 1) {{
    sha256(message, 8, scratch);
    ok = ok + eddsa_verify(message, key, signature);
  }}
  print(ok);
  return ok;
}}
""", "EdDSA verification through the precompile", uses_precompile=True,
         expected_output=(4,))
