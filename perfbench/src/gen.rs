//! Seeded input generation. Everything the analyzer sees is drawn from
//! the workload seed here: dispatcher/leaf program sources, leaf
//! iteration counts, the leaf each edit touches and the serve request
//! order. The analyzer itself only ever receives the generated text.

use std::fmt::Write as _;

/// SplitMix64: small, fast, and stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed, so adding a stream
    /// never shifts the values another stream draws.
    #[must_use]
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed ^ h.rotate_left(17))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        let span = u64::from(hi - lo) + 1;
        lo + u32::try_from(self.next_u64() % span).expect("span fits u32")
    }

    /// Uniform index below `n`.
    pub fn index(&mut self, n: usize) -> usize {
        usize::try_from(self.next_u64() % n as u64).expect("index fits usize")
    }
}

/// One leaf: a counted loop with a `mul`, an `lw`/`sw` pair on its own
/// scratch word and a data-dependent diamond.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Leaf {
    pub iters: u32,
    /// Diamond selector: the short arm runs when `counter & mask == 0`.
    pub mask: u32,
    pub addend: u32,
}

/// `main` → `groups` dispatchers → `per_group` leaves each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Probe {
    pub groups: usize,
    pub per_group: usize,
    pub leaves: Vec<Leaf>,
}

const MIN_ITERS: u32 = 3;
const MAX_ITERS: u32 = 12;
const SCRATCH_BASE: u32 = 0x8_0000;

/// Generated leaves draw their addend from `1..=9`; fresh programs carry
/// a salt from this range instead (see [`Salts`]).
const SALT_BASE: u32 = 10;
const SALTS: u32 = 30_000;

/// Addends no generated leaf has and no earlier fresh program of the
/// stream had, so each edit or first-sight program shares no changed
/// function with anything analyzed before it. Without them a run's later
/// requests hit artifacts of earlier ones more often the longer it runs,
/// so a faster host would also get an easier workload.
#[derive(Debug, Clone, Default)]
pub struct Salts(u32);

impl Salts {
    pub fn draw(&mut self) -> u32 {
        self.0 += 1;
        SALT_BASE + self.0 % SALTS
    }
}

impl Probe {
    #[must_use]
    pub fn generate(rng: &mut Rng, groups: usize, per_group: usize) -> Probe {
        let leaves = (0..groups * per_group)
            .map(|_| Leaf {
                iters: rng.range(MIN_ITERS, MAX_ITERS),
                mask: [1, 3][rng.index(2)],
                addend: rng.range(1, 9),
            })
            .collect();
        Probe {
            groups,
            per_group,
            leaves,
        }
    }

    /// The program of one dispatcher: `main` → dispatcher `group` → its
    /// leaves, unchanged. A module request of the analysis workloads.
    #[must_use]
    pub fn module(&self, group: usize) -> Probe {
        let first = group * self.per_group;
        Probe {
            groups: 1,
            per_group: self.per_group,
            leaves: self.leaves[first..first + self.per_group].to_vec(),
        }
    }

    /// A one-leaf edit: a seeded leaf gets a different iteration count
    /// and the addend `salt`, so exactly that function's bytes change,
    /// and edits with different salts never coincide.
    #[must_use]
    pub fn edit(&self, rng: &mut Rng, salt: u32) -> (usize, Probe) {
        let leaf = rng.index(self.leaves.len());
        let mut edited = self.clone();
        let old = edited.leaves[leaf].iters;
        let mut iters = rng.range(MIN_ITERS, MAX_ITERS - 1);
        if iters >= old {
            iters += 1;
        }
        edited.leaves[leaf].iters = iters;
        edited.leaves[leaf].addend = salt;
        (leaf, edited)
    }

    /// The house-ISA assembly source.
    #[must_use]
    pub fn source(&self) -> String {
        let mut src = String::from(".org 0x1000\nmain:\n");
        for g in 0..self.groups {
            let _ = writeln!(src, "    call g{g}");
        }
        src.push_str("    halt\n");
        for g in 0..self.groups {
            let _ = writeln!(src, "g{g}:\n    subi sp, sp, 4\n    sw   lr, 0(sp)");
            for l in 0..self.per_group {
                let _ = writeln!(src, "    call f{}", g * self.per_group + l);
            }
            src.push_str("    lw   lr, 0(sp)\n    addi sp, sp, 4\n    ret\n");
        }
        for (i, leaf) in self.leaves.iter().enumerate() {
            let scratch = SCRATCH_BASE + 16 * u32::try_from(i).expect("leaf index fits u32");
            let Leaf {
                iters,
                mask,
                addend,
            } = leaf;
            let _ = write!(
                src,
                "f{i}:\n\
                 \x20   li   r1, {iters}\n\
                 \x20   li   r7, {scratch:#x}\n\
                 f{i}_loop:\n\
                 \x20   mul  r3, r1, r1\n\
                 \x20   lw   r5, 0(r7)\n\
                 \x20   add  r4, r5, r3\n\
                 \x20   andi r6, r1, {mask}\n\
                 \x20   beq  r6, r0, f{i}_short\n\
                 \x20   addi r4, r4, {addend}\n\
                 \x20   mul  r4, r4, r3\n\
                 \x20   j    f{i}_join\n\
                 f{i}_short:\n\
                 \x20   shri r4, r4, 1\n\
                 f{i}_join:\n\
                 \x20   sw   r4, 0(r7)\n\
                 \x20   subi r1, r1, 1\n\
                 \x20   bne  r1, r0, f{i}_loop\n\
                 \x20   ret\n"
            );
        }
        src
    }
}

/// What one serve request asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// A corpus workload by index into the serve corpus list.
    Corpus(usize),
    /// A small program never sent before (an artifact-store write).
    FirstSight(Probe),
    /// A program sent earlier in the stream, by its stream-wide request
    /// index (an artifact-store read).
    Repeat(usize),
    /// A one-leaf edit of the stream's large base program.
    Edit(Probe),
}

/// One closed-loop segment of the serve stream: a request both
/// connections send at the same moment (exercises in-flight dedup),
/// then each connection's own requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    pub shared: Request,
    pub lanes: [Vec<Request>; 2],
}

/// The request kinds a connection sends per segment after the shared
/// edit, one of each in a seeded order: a corpus workload, a first-sight
/// program, a repeat of an earlier first-sight program and a one-leaf
/// edit. With the shared edit these are the five kinds the stream is
/// meant to exercise, in equal shares: an assumption, since no traffic
/// record of the service exists to take proportions from.
const LANE_KINDS: [u8; 4] = [b'c', b'f', b'r', b'e'];

/// Shape of the serve stream's large edit program: 4 × 33 leaves, so
/// 137 functions with `main` and the dispatchers.
pub const SERVE_BASE_SHAPE: (usize, usize) = (4, 33);

/// The deterministic, unbounded serve request stream of one seed.
#[derive(Debug, Clone)]
pub struct ServePlan {
    pub base: Probe,
    corpus_len: usize,
    rng: Rng,
    /// Every request issued so far, in stream order (shared requests
    /// once), so repeats can point back at them.
    issued: Vec<Request>,
    /// Where the current segment starts in `issued`: repeats only name
    /// programs of earlier segments, which the service has answered.
    segment_start: usize,
    salts: Salts,
}

impl ServePlan {
    #[must_use]
    pub fn new(seed: u64, corpus_len: usize) -> ServePlan {
        let mut rng = Rng::new(seed, "serve");
        let base = Probe::generate(&mut rng, SERVE_BASE_SHAPE.0, SERVE_BASE_SHAPE.1);
        ServePlan {
            base,
            corpus_len,
            rng,
            issued: Vec::new(),
            segment_start: 0,
            salts: Salts::default(),
        }
    }

    /// Every request issued so far, in stream order.
    #[must_use]
    pub fn issued(&self) -> &[Request] {
        &self.issued
    }

    /// A small program of fixed shape, so first-sight latency does not
    /// swing with a drawn program size, salted in every leaf so none of
    /// its functions was analyzed before.
    fn first_sight(&mut self) -> Request {
        let mut program = Probe::generate(&mut self.rng, 2, 3);
        let salt = self.salts.draw();
        for leaf in &mut program.leaves {
            leaf.addend = salt;
        }
        Request::FirstSight(program)
    }

    fn issue(&mut self, kind: u8) -> Request {
        let request = match kind {
            b'c' => Request::Corpus(self.rng.index(self.corpus_len)),
            b'f' => self.first_sight(),
            b'r' => {
                let earlier: Vec<usize> = (0..self.segment_start)
                    .filter(|&i| matches!(self.issued[i], Request::FirstSight(_)))
                    .collect();
                if earlier.is_empty() {
                    self.first_sight()
                } else {
                    Request::Repeat(earlier[self.rng.index(earlier.len())])
                }
            }
            _ => Request::Edit(self.base.edit(&mut self.rng, self.salts.draw()).1),
        };
        self.issued.push(request.clone());
        request
    }

    /// The next segment of the stream.
    pub fn next_segment(&mut self) -> Segment {
        self.segment_start = self.issued.len();
        // The shared request is a fresh edit of the large program, so
        // the leader is still computing when the follower arrives.
        let shared = self.issue(b'e');
        let mut lanes: [Vec<Request>; 2] = [Vec::new(), Vec::new()];
        for lane in &mut lanes {
            let mut kinds = LANE_KINDS;
            // Fisher–Yates, so each lane interleaves kinds differently.
            for i in (1..kinds.len()).rev() {
                kinds.swap(i, self.rng.index(i + 1));
            }
            for k in kinds {
                lane.push(self.issue(k));
            }
        }
        Segment { shared, lanes }
    }
}

/// The inputs of the analysis workloads: a base program, the sequence
/// of its one-leaf edits (one per cold/warm unit) and the sequence of
/// module requests (a one-leaf edit of one seeded dispatcher's program).
#[derive(Debug, Clone)]
pub struct EditPlan {
    pub base: Probe,
    edits: Rng,
    modules: Rng,
    salts: Salts,
}

impl EditPlan {
    #[must_use]
    pub fn new(seed: u64, workload: &str, groups: usize, per_group: usize) -> EditPlan {
        let mut rng = Rng::new(seed, workload);
        let base = Probe::generate(&mut rng, groups, per_group);
        EditPlan {
            base,
            edits: rng,
            modules: Rng::new(seed, &format!("{workload}-modules")),
            salts: Salts::default(),
        }
    }

    /// The next edited variant and the leaf it touches. Every edit is
    /// new to the warm units' store.
    pub fn next_edit(&mut self) -> (usize, Probe) {
        self.base.edit(&mut self.edits, self.salts.draw())
    }

    /// The next module request: the group it comes from and its program.
    pub fn next_module(&mut self) -> (usize, Probe) {
        let group = self.modules.index(self.base.groups);
        (
            group,
            self.base
                .module(group)
                .edit(&mut self.modules, self.salts.draw())
                .1,
        )
    }
}
