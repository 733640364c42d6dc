//! In-process replays of the served stream, one per layer below the
//! shard pool: `game` (`Registry::handle`), `core` (each game played on
//! a standalone `AddOnState`/`SubstOnState`), `econ` (`Money::from_str`
//! over the stream's decimal strings) and `wal` (`ShardDurability`, as
//! the shard worker drives it).

use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::str::FromStr;
use std::time::Instant;

use osp_core::prelude::*;
use osp_server::protocol::{Mechanism, Op};
use osp_server::wal::{self, ShardDurability};
use osp_server::Registry;

use crate::trace::{Tracer, ROOT};
use crate::workload::Stream;
use crate::{ENGINE, SHARDS};

/// Requests per second of `Registry::handle` over the whole stream,
/// decoded ahead of time: no codec, threads or queues. Median of
/// `reps` replays.
#[must_use]
pub fn game_rate(stream: &Stream, reps: usize) -> f64 {
    let mut rates: Vec<f64> = (0..reps)
        .map(|_| {
            let ops: Vec<(u64, Op)> = stream
                .requests
                .iter()
                .map(|r| (r.id, r.op.clone()))
                .collect();
            let mut registry = Registry::new(ENGINE, SHARDS);
            let start = Instant::now();
            for (id, op) in ops {
                black_box(registry.handle(id, op));
            }
            stream.requests.len() as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    crate::report::median(&mut rates)
}

/// Replays the stream through `Registry::handle`, one span per call
/// named after the operation kind.
pub fn game_spans(stream: &Stream, tracer: &mut Tracer) {
    let mut registry = Registry::new(ENGINE, SHARDS);
    for request in &stream.requests {
        let op = request.op.clone();
        let name = match op {
            Op::Create { .. } => "game.handle.create",
            Op::Arrive { .. } => "game.handle.arrive",
            Op::Revise { .. } => "game.handle.revise",
            Op::Tick { .. } => "game.handle.tick",
            Op::Price { .. } => "game.handle.price",
            _ => "game.handle.snapshot",
        };
        let start = Instant::now();
        black_box(registry.handle(request.id, op));
        tracer.span(name, start, Instant::now(), ROOT, request.id);
    }
}

fn money(strings: &[String]) -> Vec<Money> {
    strings
        .iter()
        .map(|s| Money::from_str(s).expect("generated amounts parse"))
        .collect()
}

/// Parses every decimal string in the stream with `Money::from_str`,
/// one span per request that carries any. Returns the strings parsed.
pub fn econ_spans(stream: &Stream, tracer: &mut Tracer) -> u64 {
    let mut parsed = 0;
    for request in &stream.requests {
        let strings = match &request.op {
            Op::Create { costs, .. } => costs,
            Op::Arrive { values, .. } | Op::Revise { values, .. } => values,
            _ => continue,
        };
        let start = Instant::now();
        for s in strings {
            black_box(Money::from_str(black_box(s)).expect("generated amounts parse"));
        }
        tracer.span("econ.money_parse", start, Instant::now(), ROOT, request.id);
        parsed += strings.len() as u64;
    }
    parsed
}

/// One game's standalone mechanism state. Like the server's
/// `GameState`, both variants are big root states held in one vector
/// and borrowed in place, so boxing the larger buys nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
enum Game {
    Add(AddOnState),
    Subst(SubstOnState),
}

#[derive(Clone)]
enum Event {
    Submit(OnlineBid),
    SubmitSubst(SubstOnlineBid),
    Revise(UserId, SlotId, Vec<Money>),
    Advance,
}

/// Each game's mechanism events, in stream order, with every amount
/// parsed ahead of time.
#[derive(Clone)]
pub struct CoreTrace {
    games: Vec<Game>,
    events: Vec<(usize, Event, u64)>,
}

impl CoreTrace {
    /// Extracts the mechanism calls the registry would make.
    #[must_use]
    pub fn new(stream: &Stream) -> Self {
        let mut index = HashMap::new();
        let mut games = Vec::new();
        let mut events = Vec::new();
        for request in &stream.requests {
            let event = match &request.op {
                Op::Create {
                    game,
                    mechanism,
                    horizon,
                    costs,
                    seed,
                    ..
                } => {
                    let costs = money(costs);
                    games.push(if *mechanism == Mechanism::SubstOn {
                        let tiebreak = seed.map_or(TieBreak::LowestOptId, TieBreak::Random);
                        Game::Subst(
                            SubstOnState::with_engine(costs, *horizon, tiebreak, ENGINE)
                                .expect("generated games are valid"),
                        )
                    } else {
                        Game::Add(
                            AddOnState::with_engine(costs[0], *horizon, ENGINE)
                                .expect("generated games are valid"),
                        )
                    });
                    index.insert(game.0, games.len() - 1);
                    continue;
                }
                Op::Arrive {
                    user,
                    start,
                    values,
                    substitutes,
                    ..
                } => {
                    let series = SlotSeries::new(SlotId(*start), money(values))
                        .expect("generated series are valid");
                    if substitutes.is_empty() {
                        Event::Submit(OnlineBid::new(UserId(*user), series))
                    } else {
                        Event::SubmitSubst(SubstOnlineBid {
                            user: UserId(*user),
                            substitutes: substitutes
                                .iter()
                                .copied()
                                .map(OptId)
                                .collect::<BTreeSet<_>>(),
                            series,
                        })
                    }
                }
                Op::Revise {
                    user, from, values, ..
                } => Event::Revise(UserId(*user), SlotId(*from), money(values)),
                Op::Tick { .. } => Event::Advance,
                _ => continue,
            };
            let game = request.op.game().expect("game operations name a game").0;
            events.push((index[&game], event, request.id));
        }
        CoreTrace { games, events }
    }

    /// Plays every event; `quiet` steps AddOn games with
    /// `advance_quiet`, skipping the slot report. Returns seconds.
    pub fn play(self, quiet: bool, mut tracer: Option<&mut Tracer>) -> f64 {
        let CoreTrace { mut games, events } = self;
        let start = Instant::now();
        for (game, event, id) in events {
            let t0 = tracer.is_some().then(Instant::now);
            let name = match (&mut games[game], event) {
                (Game::Add(s), Event::Submit(bid)) => {
                    s.submit(bid).expect("accepted");
                    "core.submit"
                }
                (Game::Subst(s), Event::SubmitSubst(bid)) => {
                    s.submit(bid).expect("accepted");
                    "core.submit"
                }
                (Game::Add(s), Event::Revise(user, from, values)) => {
                    s.revise(user, from, values).expect("accepted");
                    "core.revise"
                }
                (Game::Add(s), Event::Advance) if quiet => {
                    s.advance_quiet().expect("within horizon");
                    "core.advance_quiet"
                }
                (Game::Add(s), Event::Advance) => {
                    black_box(s.advance().expect("within horizon"));
                    "core.advance"
                }
                (Game::Subst(s), Event::Advance) => {
                    black_box(s.advance().expect("within horizon"));
                    "core.advance"
                }
                _ => unreachable!("events match their game's mechanism"),
            };
            if let Some(tracer) = tracer.as_deref_mut() {
                tracer.span(name, t0.expect("traced"), Instant::now(), ROOT, id);
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        black_box(games);
        elapsed
    }

    /// Number of slots priced by AddOn games (where `advance_quiet`
    /// exists), for per-slot report cost.
    #[must_use]
    pub fn addon_advances(&self) -> u64 {
        self.events
            .iter()
            .filter(|(g, e, _)| {
                matches!(e, Event::Advance) && matches!(self.games[*g], Game::Add(_))
            })
            .count() as u64
    }
}

/// What the WAL replay counted.
pub struct WalFigures {
    /// Checkpoints written while serving the stream once.
    pub checkpoints: u64,
    /// Mean bytes a logged operation adds to the log.
    pub bytes_per_record: f64,
}

/// Reopens `dir` (a copy of the warm-up's directory) with
/// `ShardDurability::open`, then drives the served requests through it
/// exactly as a shard worker does: append if logged, handle, maybe
/// checkpoint. Records `wal.recover`, `wal.append` and `wal.checkpoint`
/// spans.
pub fn wal_spans(
    stream: &Stream,
    dir: &Path,
    checkpoint_every: u64,
    tracer: &mut Tracer,
) -> Result<WalFigures, String> {
    let start = Instant::now();
    let (mut durability, mut registry) =
        ShardDurability::open(dir, 0, checkpoint_every, None, ENGINE, SHARDS)?;
    tracer.span("wal.recover", start, Instant::now(), ROOT, 0);
    // The segment layout is `shard-<k>.wal`; a checkpoint truncates it.
    let log = dir.join("shard-0.wal");
    let log_len = || std::fs::metadata(&log).map(|m| m.len()).unwrap_or(0);
    let (mut checkpoints, mut appended, mut bytes) = (0u64, 0u64, 0u64);
    for request in &stream.requests[stream.served()] {
        let before = log_len();
        if wal::is_logged(&request.op) {
            let t0 = Instant::now();
            durability.append(request.id, &request.op)?;
            tracer.span("wal.append", t0, Instant::now(), ROOT, request.id);
            appended += 1;
        }
        let after_append = log_len();
        bytes += after_append - before;
        registry.handle(request.id, request.op.clone());
        let t0 = Instant::now();
        durability.maybe_checkpoint(&registry)?;
        let t1 = Instant::now();
        if log_len() < after_append {
            tracer.span("wal.checkpoint", t0, t1, ROOT, request.id);
            checkpoints += 1;
        }
    }
    Ok(WalFigures {
        checkpoints,
        bytes_per_record: if appended == 0 {
            0.0
        } else {
            bytes as f64 / appended as f64
        },
    })
}
