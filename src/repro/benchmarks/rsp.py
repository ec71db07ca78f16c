"""RSP (Reth Succinct Processor) stand-in: proving EVM-style block execution.

The real RSP benchmark replays an Ethereum block inside the zkVM.  The
stand-in interprets a small EVM-flavoured stack machine over a synthetic
block of transactions, updates an account state array, and hashes each
transaction through the Keccak precompile — the same "interpreter loop plus
precompile calls" workload shape."""

from __future__ import annotations

from . import register

register("rsp", "rsp", """
// Opcodes: 0=PUSH imm, 1=ADD, 2=MUL, 3=SUB, 4=DUP, 5=SWAP, 6=SLOAD, 7=SSTORE, 8=HALT
const TXS = 8;
const CODE_LEN = 24;
global code[192];        // TXS x CODE_LEN opcode stream
global operands[192];
global stack[32];
global storage[64];
global tx_words[16];
global tx_hash[8];

fn execute_tx(tx) -> int {
  var sp = 0;
  var pc = 0;
  var gas = 0;
  while (pc < CODE_LEN) {
    var op = code[tx * CODE_LEN + pc];
    var arg = operands[tx * CODE_LEN + pc];
    gas = gas + 3;
    if (op == 0) {
      stack[sp] = arg;
      sp = sp + 1;
    } else { if (op == 1 && sp >= 2) {
      stack[sp - 2] = stack[sp - 2] + stack[sp - 1];
      sp = sp - 1;
    } else { if (op == 2 && sp >= 2) {
      stack[sp - 2] = stack[sp - 2] * stack[sp - 1];
      sp = sp - 1;
      gas = gas + 5;
    } else { if (op == 3 && sp >= 2) {
      stack[sp - 2] = stack[sp - 2] - stack[sp - 1];
      sp = sp - 1;
    } else { if (op == 4 && sp >= 1) {
      stack[sp] = stack[sp - 1];
      sp = sp + 1;
    } else { if (op == 5 && sp >= 2) {
      var tmp = stack[sp - 1];
      stack[sp - 1] = stack[sp - 2];
      stack[sp - 2] = tmp;
    } else { if (op == 6 && sp >= 1) {
      stack[sp - 1] = storage[stack[sp - 1] % 64];
      gas = gas + 100;
    } else { if (op == 7 && sp >= 2) {
      storage[stack[sp - 1] % 64] = stack[sp - 2];
      sp = sp - 2;
      gas = gas + 100;
    } else {
      pc = CODE_LEN;
    } } } } } } } }
    pc = pc + 1;
  }
  return gas;
}

fn main() -> int {
  var tx; var i;
  // Build a deterministic block of transactions.
  for (tx = 0; tx < TXS; tx = tx + 1) {
    for (i = 0; i < CODE_LEN; i = i + 1) {
      var k = tx * CODE_LEN + i;
      code[k] = (k * 7 + tx) % 9;
      operands[k] = (k * 2654435761) % 1000;
    }
    code[tx * CODE_LEN] = 0;              // every tx starts with a PUSH
    code[tx * CODE_LEN + CODE_LEN - 1] = 8;  // and ends with HALT
  }
  var total_gas = 0;
  for (tx = 0; tx < TXS; tx = tx + 1) {
    total_gas = total_gas + execute_tx(tx);
    // Hash the transaction body through the Keccak precompile (receipt hash).
    for (i = 0; i < 16; i = i + 1) { tx_words[i] = code[tx * CODE_LEN + i] * 65537 + operands[tx * CODE_LEN + i]; }
    keccak256(tx_words, 16, tx_hash);
    storage[tx % 64] = storage[tx % 64] ^ tx_hash[0];
  }
  var state_root = 0;
  for (i = 0; i < 64; i = i + 1) { state_root = state_root ^ (storage[i] + i); }
  var result = (total_gas % 65536) * 65536 + (state_root % 65536 + 65536) % 65536;
  print(result);
  return result;
}
""", "EVM-style block execution with precompile-hashed transactions",
         uses_precompile=True, expected_output=(25276845,))
