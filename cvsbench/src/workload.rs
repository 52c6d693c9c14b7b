//! Workload specifications and the seeded inputs generated from them.
//!
//! Everything a run feeds the program — file contents, preloaded
//! histories, file picks, edit positions and edit text — is generated here
//! from the workload seed before timing starts. The measured loop only
//! replays these plans.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcvs_store::{from_lines, FileHistory, RevMeta};
use tcvs_workload::Zipf;

/// Which detection protocol the clients and server run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// Protocol I with blocking signature deposits (MSS-signed states).
    One,
    /// Protocol II: XOR state accumulators, no signatures.
    Two,
}

/// How a user picks the file for its next command.
#[derive(Clone, Copy, Debug)]
pub enum Pick {
    /// Every file equally likely.
    Uniform,
    /// Zipf with the given exponent; rank 0 is the hottest file.
    Zipf(f64),
}

/// How the repository is populated before timing starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Load {
    /// One `Put` per file of a history encoded in memory.
    Puts,
    /// One `Cvs::add` per file (a `Get` plus a `Put`).
    Adds,
}

/// The command mix, in percent; the three shares sum to 100.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Checkout, one-line change, commit.
    pub edit: u32,
    /// A bare checkout.
    pub checkout: u32,
    /// `cvs log`.
    pub log: u32,
}

/// One benchmark workload.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Name as given on the command line.
    pub name: &'static str,
    /// Detection protocol.
    pub protocol: Protocol,
    /// Number of files in the repository.
    pub files: usize,
    /// Revisions preloaded per file (1 = just the initial import).
    pub revisions: u32,
    /// Lines per file.
    pub lines: usize,
    /// Characters per line.
    pub line_len: usize,
    /// File choice.
    pub pick: Pick,
    /// Command mix.
    pub mix: Mix,
    /// Repository load path.
    pub load: Load,
    /// MSS tree height per user (Protocol I only): `2^height` signatures.
    pub user_key_height: u32,
}

impl WorkloadSpec {
    /// Every workload the benchmark defines.
    pub const NAMES: [&'static str; 3] = ["deep_history", "wide_tree", "signed_commits"];

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<WorkloadSpec> {
        let spec = match name {
            // Every command moves and re-hashes a ~99 KB history.
            "deep_history" => WorkloadSpec {
                name: "deep_history",
                protocol: Protocol::Two,
                files: 16,
                revisions: 1000,
                lines: 200,
                line_len: 33,
                pick: Pick::Uniform,
                mix: Mix {
                    edit: 50,
                    checkout: 40,
                    log: 10,
                },
                load: Load::Puts,
                user_key_height: 0,
            },
            // Small values in a wide tree: per-operation fixed costs.
            "wide_tree" => WorkloadSpec {
                name: "wide_tree",
                protocol: Protocol::Two,
                files: 16_384,
                revisions: 1,
                lines: 20,
                // Short lines keep the 16k-file checkpoint, rewritten every
                // 256 operations, near 6 MB; 33-character lines doubled the
                // run's disk writes to over 3 GB.
                line_len: 8,
                pick: Pick::Zipf(0.99),
                mix: Mix {
                    edit: 10,
                    checkout: 85,
                    log: 5,
                },
                load: Load::Puts,
                user_key_height: 0,
            },
            // Every operation is MSS-signed and the server blocks on the
            // deposit.
            "signed_commits" => WorkloadSpec {
                name: "signed_commits",
                protocol: Protocol::One,
                files: 1024,
                revisions: 1,
                lines: 20,
                line_len: 33,
                pick: Pick::Uniform,
                mix: Mix {
                    edit: 50,
                    checkout: 45,
                    log: 5,
                },
                load: Load::Adds,
                user_key_height: 15,
            },
            _ => return None,
        };
        Some(spec)
    }
}

/// One planned user action.
#[derive(Clone, Debug)]
pub enum Action {
    /// Checkout `file`, replace line `line` (modulo the file's length) with
    /// `text`, commit.
    Edit {
        /// File index.
        file: u32,
        /// Line to replace.
        line: u32,
        /// Replacement text.
        text: String,
    },
    /// Checkout `file`.
    Checkout {
        /// File index.
        file: u32,
    },
    /// `cvs log` of `file`.
    Log {
        /// File index.
        file: u32,
    },
}

/// The repository's initial contents, ready to load.
pub enum Preload {
    /// Encoded histories, one `Put` each.
    Values(Vec<Vec<u8>>),
    /// File texts, one `Cvs::add` each.
    Texts(Vec<String>),
}

/// Everything a run feeds the program, generated from one seed.
pub struct Inputs {
    /// Repository paths, indexed by file number.
    pub paths: Vec<String>,
    /// Initial contents.
    pub preload: Preload,
    /// Per-user action plans; a user that exhausts its plan starts over.
    pub plans: Vec<Vec<Action>>,
}

/// Actions planned per user. Plans wrap around, so this bounds memory,
/// not run length.
pub const PLAN_LEN: usize = 50_000;

/// Commit stamp of the loader's imports (users stamp with their own ids).
pub const LOADER_STAMP: u64 = 0;

/// A pseudo-random source line of `len` hex digits.
fn line(rng: &mut StdRng, len: usize) -> String {
    let mut s = String::with_capacity(len + 16);
    while s.len() < len {
        s.push_str(&format!("{:016x}", rng.gen::<u64>()));
    }
    s.truncate(len);
    s
}

fn import_meta() -> RevMeta {
    RevMeta {
        author: "loader".to_string(),
        message: "import".to_string(),
        stamp: LOADER_STAMP,
    }
}

impl Inputs {
    /// Generates the inputs for `users` users from `seed`.
    pub fn generate(spec: &WorkloadSpec, seed: u64, users: usize) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6376_7362_656e_6368);
        let paths: Vec<String> = (0..spec.files).map(|i| format!("src/m{i:05}.c")).collect();
        let contents: Vec<Vec<String>> = (0..spec.files)
            .map(|_| {
                (0..spec.lines)
                    .map(|_| line(&mut rng, spec.line_len))
                    .collect()
            })
            .collect();
        let preload = match spec.load {
            Load::Adds => Preload::Texts(contents.iter().map(|c| from_lines(c)).collect()),
            Load::Puts => Preload::Values(
                contents
                    .into_iter()
                    .map(|c| {
                        let mut h = FileHistory::create(c, import_meta());
                        for _ in 1..spec.revisions {
                            let mut next = h.head_content().to_vec();
                            let at = rng.gen_range(0..next.len());
                            next[at] = line(&mut rng, spec.line_len);
                            h.commit(next, import_meta());
                        }
                        h.to_bytes()
                    })
                    .collect(),
            ),
        };
        let zipf = match spec.pick {
            Pick::Zipf(theta) => Some(Zipf::new(spec.files, theta)),
            Pick::Uniform => None,
        };
        let plans = (0..users)
            .map(|u| {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(u as u64));
                (0..PLAN_LEN)
                    .map(|_| {
                        let file = match &zipf {
                            Some(z) => z.sample(&mut rng) as u32,
                            None => rng.gen_range(0..spec.files as u32),
                        };
                        let roll = rng.gen_range(0..100u32);
                        if roll < spec.mix.edit {
                            Action::Edit {
                                file,
                                line: rng.gen_range(0..spec.lines as u32),
                                text: line(&mut rng, spec.line_len),
                            }
                        } else if roll < spec.mix.edit + spec.mix.checkout {
                            Action::Checkout { file }
                        } else {
                            Action::Log { file }
                        }
                    })
                    .collect()
            })
            .collect();
        Inputs {
            paths,
            preload,
            plans,
        }
    }
}
