//! The three workloads: what traffic each sends, and why it was chosen.
//!
//! Every workload is a finite, seeded request stream built with
//! `osp_bench::server_load::build_trace` (creates, then slot-phased
//! arrivals, revisions and ticks, round-robin over all games), plus the
//! reads this benchmark adds: a final `snapshot` per game (so finished
//! games can be audited) and, on `durable_churn`, one `price` read per
//! game per slot. One pass serves the stream once through a fresh pool.

use osp_bench::server_load::{build_trace, LoadConfig};
use osp_server::protocol::{GameId, Op, Request};

/// Write-ahead logging settings of a durable workload.
pub struct Durable {
    /// Checkpoint a shard after this many logged events.
    pub checkpoint_every: u64,
    /// Slots the warm-up serves before it shuts the pool down. Every
    /// timed pass reopens the directory the warm-up left (checkpoint +
    /// log suffix) and serves the remaining slots.
    pub warm_slots: u32,
}

/// One benchmark workload.
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (also in `BENCHMARK.json`).
    pub why: &'static str,
    source: &'static str,
    games: u64,
    users: u32,
    /// One `price` read per game per slot, issued before the tick.
    price_reads: bool,
    /// `Some` runs the pool with its WAL on.
    pub durable: Option<Durable>,
    /// Time between slot releases in the open loop, ms: long enough
    /// on a 2-core host that every burst, the heaviest included, drains
    /// before the next slot closes. A burst that spills over queues the
    /// next slot behind it: `durable_churn`'s churn-wave slots take 55 to
    /// 75 ms with their checkpoints, and at a 40 ms period its `p99_ms`
    /// spread (quartile distance over median) 0.32 over ten seeds; at
    /// 100 ms, 0.10 over six of the same seeds.
    pub slot_ms: u64,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "small_games",
        why: "~1000 concurrent 4-user uniform_z20 AddOn games: the request path (codec, shard queue) \
              does the work; 26k requests = 80k user-slot events per pass",
        source: "uniform_z20",
        games: 1000,
        users: 4,
        price_reads: false,
        durable: None,
        slot_ms: 25,
    },
    Workload {
        name: "large_subst",
        why: "8 concurrent 2000-user subst12_z20 SubstOn games: ticks cost ~300us, the largest \
              engine share (SubstOn phase loop, Shapley solver) of the three workloads",
        source: "subst12_z20",
        games: 8,
        users: 2000,
        price_reads: false,
        durable: None,
        slot_ms: 30,
    },
    Workload {
        name: "durable_churn",
        why: "100 churn_z40 AddOn games x 50 users, WAL on, a checkpoint every 1000 logged events, \
              a price read per game per slot; each pass reopens the warm-up's WAL: setup_s is recovery",
        source: "churn_z40",
        games: 100,
        users: 50,
        price_reads: true,
        durable: Some(Durable {
            checkpoint_every: 1_000,
            warm_slots: 2,
        }),
        slot_ms: 100,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A built request stream.
pub struct Stream {
    /// Decoded requests; request `k` carries id `k + 1`.
    pub requests: Vec<Request>,
    /// The same requests as wire lines: the generator's input.
    pub lines: Vec<String>,
    /// Requests before this index are served only by a durable
    /// workload's warm-up; passes serve `served_from..`.
    pub served_from: usize,
    /// Per request, the slot whose close releases it in the open loop:
    /// the slot of the next tick in stream order (creates go out one
    /// slot before slot 1, the final snapshots one slot after the last
    /// tick).
    pub release: Vec<u32>,
    /// User-slot events (users × horizon, summed over games): the unit
    /// of `BENCH_mechanisms.json`'s `ops_per_sec`.
    pub user_slots: u64,
}

impl Stream {
    /// The requests every pass serves.
    #[must_use]
    pub fn served(&self) -> std::ops::Range<usize> {
        self.served_from..self.requests.len()
    }
}

impl Workload {
    /// Builds the stream for `seed`: the same seed gives the same
    /// requests.
    #[must_use]
    pub fn stream(&self, seed: u64) -> Stream {
        let trace = build_trace(&LoadConfig {
            games: self.games,
            users_per_game: self.users,
            source: self.source,
            seed,
        });
        let mut ops = Vec::with_capacity(trace.requests.len() * 5 / 4);
        let mut served_from = 0;
        for request in trace.requests {
            if let Op::Tick { game, slot } = request.op {
                if self.price_reads {
                    ops.push(Op::Price { game });
                }
                ops.push(request.op);
                if self
                    .durable
                    .as_ref()
                    .is_some_and(|d| slot == Some(d.warm_slots))
                {
                    served_from = ops.len();
                }
            } else {
                ops.push(request.op);
            }
        }
        ops.extend((0..self.games).map(|g| Op::Snapshot { game: GameId(g) }));
        let requests: Vec<Request> = ops
            .into_iter()
            .zip(1..)
            .map(|(op, id)| Request { id, op })
            .collect();
        let lines = requests
            .iter()
            .map(|r| serde_json::to_string(r).expect("requests encode"))
            .collect();
        let mut release = vec![trace.horizon + 1; requests.len()];
        let mut next_tick = trace.horizon + 1;
        for (k, request) in requests.iter().enumerate().rev() {
            match request.op {
                Op::Tick {
                    slot: Some(slot), ..
                } => next_tick = slot,
                // Games open before slot 1, so slot 1's burst is a
                // slot like any other.
                Op::Create { .. } => {
                    release[k] = 0;
                    continue;
                }
                _ => {}
            }
            release[k] = next_tick;
        }
        Stream {
            requests,
            lines,
            served_from,
            release,
            user_slots: self.games * u64::from(self.users) * u64::from(trace.horizon),
        }
    }

    /// A copy with fewer games, for tests.
    #[cfg(test)]
    pub fn scaled(&self, games: u64) -> Workload {
        Workload {
            name: self.name,
            why: self.why,
            source: self.source,
            games,
            users: self.users.min(50),
            price_reads: self.price_reads,
            durable: self.durable.as_ref().map(|d| Durable {
                checkpoint_every: 200,
                warm_slots: d.warm_slots,
            }),
            slot_ms: self.slot_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded_and_end_with_one_snapshot_per_game() {
        let small = WORKLOADS[0].scaled(10);
        let a = small.stream(7);
        assert_eq!(a.requests, small.stream(7).requests);
        assert_ne!(a.requests, small.stream(8).requests);
        let snapshots = a
            .requests
            .iter()
            .filter(|r| matches!(r.op, Op::Snapshot { .. }))
            .count();
        assert_eq!(snapshots, 10);
        assert_eq!(a.served_from, 0);
        assert_eq!(a.user_slots, 10 * 4 * 20);
    }

    #[test]
    fn durable_warm_up_covers_exactly_its_slots() {
        let churn = WORKLOADS[2].scaled(5);
        let warm_slots = churn.durable.as_ref().unwrap().warm_slots;
        let s = churn.stream(3);
        let warm = &s.requests[..s.served_from];
        let ticks = warm
            .iter()
            .filter(|r| matches!(r.op, Op::Tick { .. }))
            .count();
        assert_eq!(
            ticks,
            5 * warm_slots as usize,
            "one tick per game per warm slot"
        );
        assert!(
            matches!(warm.last().unwrap().op, Op::Tick { slot: Some(t), .. } if t == warm_slots)
        );
        let prices = s
            .requests
            .iter()
            .filter(|r| matches!(r.op, Op::Price { .. }))
            .count();
        assert_eq!(prices, 5 * 40, "one price read per game per slot");
    }

    #[test]
    fn requests_are_released_with_the_slot_they_precede() {
        let s = WORKLOADS[0].scaled(3).stream(5);
        assert!(s.release.windows(2).all(|w| w[0] <= w[1]));
        for (request, &slot) in s.requests.iter().zip(&s.release) {
            match request.op {
                Op::Create { .. } => assert_eq!(slot, 0),
                Op::Tick { slot: Some(t), .. } => assert_eq!(slot, t),
                Op::Snapshot { .. } => assert_eq!(slot, 21),
                _ => assert!((1..=20).contains(&slot)),
            }
        }
    }
}
