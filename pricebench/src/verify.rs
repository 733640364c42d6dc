//! Correctness of every reply: compared against the sequential oracle
//! replaying the identical stream, and every finished game audited.

use std::collections::HashMap;

use osp_core::prelude::audit;
use osp_server::protocol::{Reply, Response};
use osp_server::{decode_snapshot, FinalOutcome, GameState};

use crate::workload::Stream;
use crate::{ENGINE, SHARDS};

/// What the oracle answered, with snapshots decoded to final outcomes
/// (snapshot documents hold hash maps, so their bytes differ run to run).
pub struct Expected {
    responses: Vec<Response>,
    outcomes: HashMap<usize, FinalOutcome>,
}

/// Failures counted over the replies of one or more passes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Error replies (`shard_recovering` included).
    pub errors: u64,
    /// Requests that never got a reply.
    pub unanswered: u64,
    /// Non-error replies that differ from the oracle's.
    pub wrong: u64,
    /// Finished games whose outcome fails the paper's audit.
    pub audit_violations: u64,
    /// Finished games the audit could not check because its own
    /// arithmetic overflowed (`Ratio` sums of large SubstOn outcomes).
    pub audit_overflows: u64,
}

impl Tally {
    /// Requests that failed: error, missing, or wrong.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.errors + self.unanswered + self.wrong
    }

    /// `true` when nothing failed and every audit passed.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.failed() == 0 && self.audit_violations == 0
    }

    /// Adds another tally's counts.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.unanswered += other.unanswered;
        self.wrong += other.wrong;
        self.audit_violations += other.audit_violations;
        self.audit_overflows += other.audit_overflows;
    }
}

/// Finishes the game a snapshot reply carries.
fn finished(response: &Response) -> Option<FinalOutcome> {
    let Reply::Snapshot { doc, .. } = &response.reply else {
        return None;
    };
    match decode_snapshot(doc).ok()? {
        GameState::Add(state) => state.finish().ok().map(FinalOutcome::Add),
        GameState::Subst(state) => state.finish().ok().map(FinalOutcome::Subst),
    }
}

/// Runs the paper's audit on a finished game: `Some(passed)`, or `None`
/// when the audit panicked on overflow instead of giving a verdict.
fn audit(outcome: &FinalOutcome) -> Option<bool> {
    // The audit reports overflow by panicking; keep those panics off
    // stderr, since the tally reports them.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let verdict = std::panic::catch_unwind(|| match outcome {
        FinalOutcome::Add(o) => audit::check_addon_outcome(o).is_ok(),
        FinalOutcome::Subst(o) => audit::check_subston_outcome(o).is_ok(),
    });
    std::panic::set_hook(hook);
    verdict.ok()
}

impl Expected {
    /// Replays the whole stream through `osp_server::script::oracle`.
    #[must_use]
    pub fn new(stream: &Stream) -> Self {
        let oracle = osp_server::script::oracle(&stream.requests, ENGINE, SHARDS);
        let outcomes = oracle
            .responses
            .iter()
            .enumerate()
            .filter_map(|(k, r)| finished(r).map(|o| (k, o)))
            .collect();
        Expected {
            responses: oracle.responses,
            outcomes,
        }
    }

    /// Checks the replies to requests `first..first + replies.len()`.
    #[must_use]
    pub fn check(&self, first: usize, replies: &[Option<Response>]) -> Tally {
        let mut tally = Tally {
            attempted: replies.len() as u64,
            ..Tally::default()
        };
        for (k, reply) in replies.iter().enumerate() {
            let index = first + k;
            let Some(reply) = reply else {
                tally.unanswered += 1;
                continue;
            };
            if matches!(reply.reply, Reply::Error { .. }) {
                tally.errors += 1;
            } else if let Some(want) = self.outcomes.get(&index) {
                match finished(reply) {
                    Some(got) => {
                        match audit(&got) {
                            Some(true) => {}
                            Some(false) => tally.audit_violations += 1,
                            None => tally.audit_overflows += 1,
                        }
                        if &got != want || reply.id != self.responses[index].id {
                            tally.wrong += 1;
                        }
                    }
                    None => tally.wrong += 1,
                }
            } else if *reply != self.responses[index] {
                tally.wrong += 1;
            }
        }
        tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::{serve, Loop};
    use crate::workload::WORKLOADS;
    use osp_server::{PoolConfig, ShardPool};

    fn served_replies(workload: usize) -> (Expected, Vec<Option<Response>>) {
        let stream = WORKLOADS[workload].scaled(12).stream(11);
        let expected = Expected::new(&stream);
        let pool = ShardPool::with_config(PoolConfig::in_memory(SHARDS, 64, ENGINE)).unwrap();
        let pass = serve(
            &pool,
            &stream,
            0..stream.requests.len(),
            Loop::Closed { window: 16 },
            None,
        );
        let _ = pool.shutdown();
        (expected, pass.replies)
    }

    #[test]
    fn a_clean_pass_checks_clean() {
        for workload in 0..2 {
            let (expected, replies) = served_replies(workload);
            let tally = expected.check(0, &replies);
            assert!(tally.clean(), "{tally:?}");
            assert_eq!(tally.attempted, replies.len() as u64);
        }
    }

    #[test]
    fn one_corrupted_reply_counts_once() {
        let (expected, mut replies) = served_replies(0);
        let tick = replies
            .iter()
            .position(|r| matches!(r.as_ref().unwrap().reply, Reply::Slot { .. }))
            .unwrap();
        let mut bad = replies[tick].clone().unwrap();
        bad.id += 1;
        replies[tick] = Some(bad);
        let tally = expected.check(0, &replies);
        assert_eq!(tally.wrong, 1, "{tally:?}");
        assert_eq!(tally.failed(), 1);
    }

    #[test]
    fn a_snapshot_of_another_game_is_wrong() {
        let (expected, mut replies) = served_replies(0);
        let n = replies.len();
        // The last two requests snapshot the last two games: swap their
        // payloads but keep the ids, so only the decoded outcome differs.
        let (a, b) = (
            replies[n - 2].clone().unwrap(),
            replies[n - 1].clone().unwrap(),
        );
        replies[n - 2] = Some(Response {
            id: a.id,
            reply: b.reply,
        });
        replies[n - 1] = Some(Response {
            id: b.id,
            reply: a.reply,
        });
        let tally = expected.check(0, &replies);
        assert_eq!(tally.wrong, 2, "{tally:?}");
    }

    #[test]
    fn missing_and_error_replies_fail() {
        let (expected, mut replies) = served_replies(1);
        replies[0] = None;
        replies[1] = Some(Response::error(2, "shard_recovering", "retry"));
        let tally = expected.check(0, &replies);
        assert_eq!((tally.unanswered, tally.errors, tally.failed()), (1, 1, 2));
    }
}
