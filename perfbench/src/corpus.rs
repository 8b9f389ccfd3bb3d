//! Seeded inputs. Each workload mines one of the paper's presets, and the
//! seed draws a permutation of its event labels.
//!
//! Why not reseed the generator: on the JBoss preset, five generator seeds
//! gave closed-mining jobs of 3.7 to 12.3 s, and on the Fig. 6 preset three
//! seeds gave 1.3 to 2.6 s, so the spread across seeds would measure the
//! generator. Rows keep their order because event ids follow first
//! appearance: with the same ids, the DFS visits the same nodes in the same
//! order and the closure check's early exits fall in the same places, so
//! the work is the same for every seed while every label the program
//! reads, interns, hashes and prints differs.

use std::path::Path;

use seqdb::SequenceDatabase;
use synthgen::{JbossConfig, QuestConfig};

/// SplitMix64: a small seeded generator, enough for shuffles and samples.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE4C_0000_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The JBoss-like case-study traces (`case_study_dataset`).
pub fn case_study() -> SequenceDatabase {
    JbossConfig::default().generate()
}

/// `fig6_largest(Dev)`: C = S = 100, 100 sequences.
pub fn fig6_largest_dev() -> SequenceDatabase {
    QuestConfig::paper(10, 100, 10, 100)
        .scaled_down(100)
        .generate()
}

/// `fig5_largest(Dev)`: D = 25 scaled down 50x, 500 sequences.
pub fn fig5_largest_dev() -> SequenceDatabase {
    QuestConfig::paper(25, 50, 10, 50)
        .scaled_down(50)
        .generate()
}

/// `fig5_largest(Paper)`: 25,000 sequences, about 10k events.
pub fn fig5_largest_paper() -> SequenceDatabase {
    QuestConfig::paper(25, 50, 10, 50).generate()
}

/// Writes `db` as a token file with its labels permuted by `seed`.
/// Returns the file's size in bytes.
pub fn write_seeded(db: &SequenceDatabase, seed: u64, path: &Path) -> u64 {
    let catalog = db.catalog();
    let mut labels: Vec<String> = (0..catalog.len())
        .map(|i| catalog.label_or_default(seqdb::EventId(i as u32)))
        .collect();
    Rng::new(seed).shuffle(&mut labels);
    let mut text = String::with_capacity(db.total_length() * 8);
    for seq in db.sequences() {
        for (i, event) in seq.iter_events().enumerate() {
            if i > 0 {
                text.push(' ');
            }
            text.push_str(&labels[event.index()]);
        }
        text.push('\n');
    }
    std::fs::write(path, &text).expect("write corpus");
    text.len() as u64
}
