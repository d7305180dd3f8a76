//! Seeded front-end fuzzing: mutated copies of the shipped `.op2` specs
//! must come back from `translate` as `Ok` or `Err`, never as a panic.
//!
//! Each case starts from one of the three specs and applies one to four
//! character edits (delete, insert, replace, or cut a run) drawn from a
//! fixed-seed xorshift, so a failure names a case that reproduces exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};

use op2_translator::{translate, CodegenBackend};

const SPECS: [&str; 3] = [
    include_str!("../specs/airfoil.op2"),
    include_str!("../specs/heat.op2"),
    include_str!("../specs/jac.op2"),
];

/// Characters an insert or replace draws from: the grammar's punctuation,
/// letters, digits, whitespace, a quote, and one multi-byte character (a
/// lexer that indexes by byte would split it).
const ALPHABET: &[char] = &[
    '(', ')', '{', '}', '[', ']', ';', ',', ':', '.', '=', '+', '-', '*', '/', '<', '>', '&', '|',
    '!', '#', '"', '\'', '_', 'a', 'x', 'q', 'A', 'Z', '0', '1', '9', ' ', '\t', '\n', 'é',
];

const CASES: usize = 6_000;
const SEED: u64 = 0x5EED_0000_0000_0002;

/// xorshift64*: reproducible from the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn mutate(src: &str, rng: &mut Rng) -> String {
    let mut chars: Vec<char> = src.chars().collect();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(chars.len() + 1);
        let pick = ALPHABET[rng.below(ALPHABET.len())];
        match rng.below(4) {
            0 if at < chars.len() => {
                chars.remove(at);
            }
            1 => chars.insert(at, pick),
            2 if at < chars.len() => chars[at] = pick,
            _ => {
                let end = (at + 1 + rng.below(32)).min(chars.len());
                chars.drain(at.min(end)..end);
            }
        }
    }
    chars.into_iter().collect()
}

#[test]
fn mutated_specs_never_panic_the_translator() {
    let mut rng = Rng(SEED);
    let (mut ok, mut err) = (0usize, 0usize);
    for case in 0..CASES {
        let input = mutate(SPECS[case % SPECS.len()], &mut rng);
        let backend = if case % 2 == 0 {
            CodegenBackend::Hpx
        } else {
            CodegenBackend::OpenMp
        };
        match catch_unwind(AssertUnwindSafe(|| translate(&input, backend))) {
            Ok(Ok(_)) => ok += 1,
            Ok(Err(_)) => err += 1,
            Err(_) => panic!("case {case}: translate panicked on\n{input}"),
        }
    }
    // Both outcomes occur, so the mutations neither all miss the grammar
    // nor all break it.
    assert!(ok > 0 && err > 0, "ok={ok} err={err}");
}
