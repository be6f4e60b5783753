//! Seeded query streams. A stream is a pure function of the workload seed;
//! a run consumes as much of it as its time allows.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::data::{mix, COLS};
use crate::query::{Shape, SELECTIVITIES};

/// Indices into [`SELECTIVITIES`] in zig-zag order (low, high, low, ...).
/// A timed run stops part-way through a cycle; with this order any run of
/// consecutive points mixes cheap and expensive queries, so where the run
/// stops barely moves its medians.
const ZIGZAG: [usize; 7] = [0, 6, 1, 5, 2, 4, 3];

/// The selectivity point at `step` of the zig-zag cycle.
fn zigzag(step: usize) -> usize {
    ZIGZAG[step % ZIGZAG.len()]
}

/// A projected column: with `reuse`, one of the last three columns used;
/// otherwise a column of `col2..col30` not among them. Callers alternate, so
/// streams skew toward recent columns with the same mix under every seed.
fn pick_column(rng: &mut StdRng, recent: &mut Vec<usize>, reuse: bool) -> usize {
    let col = if reuse && !recent.is_empty() {
        recent[rng.gen_range(0..recent.len())]
    } else {
        loop {
            let c = rng.gen_range(2..=COLS);
            if !recent.contains(&c) {
                break c;
            }
        }
    };
    recent.retain(|c| *c != col);
    recent.push(col);
    if recent.len() > 3 {
        recent.remove(0);
    }
    col
}

/// Follow-up queries per `explore` episode. Short episodes give a run about
/// thirty cold queries, so the first-query median and tail are steady.
pub const FOLLOW_UPS: usize = 2;

/// One `explore` follow-up in this many reuses a column of its episode. A
/// reused column is served from shreds in a few milliseconds while a new one
/// takes a scan, so the follow-up latencies are bimodal. With one in three
/// fast, the median sits inside the slow mode instead of between the two.
/// A uniform pick over 29 columns would hit a column of the episode less
/// than one time in ten, so the stream still skews toward recent columns.
pub const REUSE_EVERY: usize = 3;

/// `explore` episodes over the narrow CSV: one cold query, then
/// [`FOLLOW_UPS`] follow-ups that vary the projected column: every
/// [`REUSE_EVERY`]-th follow-up of the run reuses a column of its episode,
/// the others take a new one. The cold queries and the follow-ups each step
/// through the zig-zag cycle of `col1` selectivity points from a seeded
/// start, continuing from episode to episode, so a run sweeps every point
/// evenly.
pub struct Explore {
    rng: StdRng,
    cold_step: usize,
    follow_step: usize,
}

impl Explore {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> Explore {
        let mut rng = StdRng::seed_from_u64(mix(seed, 10));
        let cold_step = rng.gen_range(0..SELECTIVITIES.len());
        let follow_step = rng.gen_range(0..SELECTIVITIES.len());
        Explore { rng, cold_step, follow_step }
    }

    /// The next episode; its first shape is the engine's cold query.
    pub fn episode(&mut self) -> Vec<Shape> {
        let rng = &mut self.rng;
        let mut recent = Vec::new();
        let cold = SELECTIVITIES[zigzag(self.cold_step)];
        self.cold_step += 1;
        let mut shapes = vec![Shape::max("narrow", pick_column(rng, &mut recent, false), cold)];
        for _ in 0..FOLLOW_UPS {
            let sel = SELECTIVITIES[zigzag(self.follow_step)];
            let reuse = self.follow_step.is_multiple_of(REUSE_EVERY);
            self.follow_step += 1;
            let col = pick_column(rng, &mut recent, reuse);
            shapes.push(Shape::max("narrow", col, sel));
        }
        shapes
    }
}

/// The six `cold_mix` shapes.
const COLD_MIX_KINDS: usize = 6;

/// Muon `pt` cuts (GeV) of the rootsim shape, one per selectivity point.
const CUTS: [u32; 7] = [5, 10, 15, 20, 25, 30, 40];

/// `cold_mix` rounds: every shape once per round, in seeded order, each as a
/// (cold, warm) pair at two different selectivity points. Per shape, the
/// cold point steps through the zig-zag cycle round by round from a seeded
/// start, and the warm point is [`WARM_GAP`] steps further on, so every run
/// covers each shape's points evenly.
pub struct ColdMix {
    rng: StdRng,
    round: usize,
    start: [usize; COLD_MIX_KINDS],
}

/// Zig-zag steps from a `cold_mix` cold point to its warm point.
const WARM_GAP: usize = 3;

impl ColdMix {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> ColdMix {
        let mut rng = StdRng::seed_from_u64(mix(seed, 11));
        let start = std::array::from_fn(|_| rng.gen_range(0..SELECTIVITIES.len()));
        ColdMix { rng, round: 0, start }
    }

    /// The next round: `COLD_MIX_KINDS` (cold, warm) pairs.
    pub fn round(&mut self) -> Vec<[Shape; 2]> {
        let round = self.round;
        self.round += 1;
        let rng = &mut self.rng;
        let mut kinds: Vec<usize> = (0..COLD_MIX_KINDS).collect();
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.gen_range(0..=i));
        }
        kinds
            .into_iter()
            .map(|kind| {
                let a = zigzag(self.start[kind] + round);
                let b = zigzag(self.start[kind] + round + WARM_GAP);
                let x = |i: usize| raw_formats::datagen::literal_for_selectivity(SELECTIVITIES[i]);
                let col = rng.gen_range(2..=COLS);
                let max = |table| {
                    [Shape::Max { table, col, x: x(a) }, Shape::Max { table, col, x: x(b) }]
                };
                match kind {
                    0 => {
                        let sum = rng.gen_range(3..=COLS);
                        [Shape::Grouped { sum, x: x(a) }, Shape::Grouped { sum, x: x(b) }]
                    }
                    1 => [Shape::Join { x: x(a) }, Shape::Join { x: x(b) }],
                    2 => max("narrow_fbin"),
                    3 => max("narrow_ibin"),
                    4 => max("narrow_rzb"),
                    _ => [Shape::Muons { gev: CUTS[a] }, Shape::Muons { gev: CUTS[b] }],
                }
            })
            .collect()
    }
}

/// One `shared_sessions` client: explore-style queries over the narrow CSV
/// interleaved with grouped aggregates over the grouped CSV. Session `i`
/// starts on table `i mod 2`, so with two sessions each table's first query
/// comes from a different client.
pub struct SharedClient {
    rng: StdRng,
    recent: Vec<usize>,
    next_grouped: bool,
    point: usize,
    explored: usize,
}

impl SharedClient {
    /// The stream of client `session` under `seed`.
    pub fn new(seed: u64, session: usize) -> SharedClient {
        let mut rng = StdRng::seed_from_u64(mix(seed, 100 + session as u64));
        let point = rng.gen_range(0..SELECTIVITIES.len());
        SharedClient { rng, recent: Vec::new(), next_grouped: session % 2 == 1, point, explored: 0 }
    }

    /// The client's next query. Each pair of queries (one per table) steps
    /// to the next point of the zig-zag cycle.
    pub fn next_shape(&mut self) -> Shape {
        let grouped = self.next_grouped;
        self.next_grouped = !grouped;
        let x = raw_formats::datagen::literal_for_selectivity(SELECTIVITIES[zigzag(self.point)]);
        if grouped {
            self.point += 1;
            Shape::Grouped { sum: self.rng.gen_range(3..=COLS), x }
        } else {
            // Every other explore-style query reuses a recent column.
            let reuse = self.explored % 2 == 1;
            self.explored += 1;
            let col = pick_column(&mut self.rng, &mut self.recent, reuse);
            Shape::Max { table: "narrow", col, x }
        }
    }
}
