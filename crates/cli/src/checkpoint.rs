//! `osp checkpoint` / `osp resume` — persist a mid-game mechanism
//! state and finish it later.
//!
//! The snapshot document is the same [`SnapshotDoc`] the server's
//! `snapshot` request returns, so a state checkpointed here can be
//! shipped to a running server with `restore` (single-opt additive
//! games and substitutable games; multi-opt additive files checkpoint
//! one state per optimization, which only `osp resume` reads back).
//!
//! `osp resume` also reads the durable server's on-disk artifacts: a
//! `shard-<k>.ckpt` checkpoint (auto-detected by its shape), a
//! `shard-<k>.wal` log via `--wal`, or the pair — the same
//! checkpoint + log-suffix replay a recovering shard performs, but
//! offline, playing every recovered game out to its final prices.

use std::path::Path;

use osp_core::prelude::*;
use osp_econ::Money;
use osp_server::game::{GameState, Registry};
use osp_server::protocol::{Mechanism, SnapshotDoc, SNAPSHOT_VERSION};
use osp_server::wal::{self, ShardCheckpoint, CHECKPOINT_VERSION};

use crate::input::{self, AnyGame};

/// Entry point for `osp checkpoint <game.json> --at <slot> --out <state.json>`.
pub fn checkpoint(args: &[String], usage: &str) -> Result<(), String> {
    let path = args.first().ok_or_else(|| usage.to_owned())?;
    let mut at = 1u32;
    let mut out = None;
    let mut tiebreak = TieBreak::LowestOptId;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--at" => {
                let v = it.next().ok_or("--at needs a slot number")?;
                at = v.parse().map_err(|e| format!("bad --at `{v}`: {e}"))?;
            }
            "--out" => out = Some(it.next().ok_or("--out needs a path")?.clone()),
            "--tiebreak" => {
                let v = it.next().ok_or("--tiebreak needs a value")?;
                tiebreak = crate::parse_tiebreak(v)?;
            }
            other => return Err(format!("unknown flag `{other}`\n{usage}")),
        }
    }
    let out = out.ok_or("checkpoint needs --out <state.json>")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let compiled = input::parse(&json).map_err(|e| e.to_string())?;
    if at < 1 || at > compiled.horizon + 1 {
        return Err(format!(
            "--at {at} is outside the game (slots 1..={}, or {} for a finished game)",
            compiled.horizon,
            compiled.horizon + 1
        ));
    }
    let doc = build_snapshot(&compiled.game, compiled.horizon, at, tiebreak)
        .map_err(|e| e.to_string())?;
    let rendered = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&out, rendered + "\n").map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "checkpointed {} at slot {at} of {} -> {out}",
        doc.mechanism_name(),
        compiled.horizon
    );
    Ok(())
}

trait MechanismName {
    fn mechanism_name(&self) -> &'static str;
}

impl MechanismName for SnapshotDoc {
    fn mechanism_name(&self) -> &'static str {
        match self.mechanism {
            Mechanism::AddOff => "addoff",
            Mechanism::AddOn => "addon",
            Mechanism::SubstOff => "substoff",
            Mechanism::SubstOn => "subston",
        }
    }
}

/// Runs a compiled game's state machine(s) up to (not including) slot
/// `at` and serializes the live state.
///
/// Bids are all submitted up front: the mechanisms only *act* on a bid
/// from its start slot, so early submission is outcome-identical to
/// just-in-time arrival (the server's differential test covers the
/// just-in-time path).
fn build_snapshot(
    game: &AnyGame,
    horizon: u32,
    at: u32,
    tiebreak: TieBreak,
) -> Result<SnapshotDoc, MechanismError> {
    let doc = match game {
        AnyGame::AddOff(_) | AnyGame::SubstOff(_) => {
            return Err(MechanismError::HorizonExhausted { horizon: 1 });
        }
        AnyGame::AddOn(games) => {
            let mut states = Vec::with_capacity(games.len());
            for per_opt in games {
                let mut state = AddOnState::new(per_opt.cost, horizon)?;
                for bid in &per_opt.bids {
                    state.submit(bid.clone())?;
                }
                for _ in 1..at {
                    state.advance()?;
                }
                states.push(serde_json::to_value(&state).expect("state serializes"));
            }
            SnapshotDoc {
                format_version: SNAPSHOT_VERSION,
                mechanism: Mechanism::AddOn,
                addon: states,
                subston: None,
            }
        }
        AnyGame::SubstOn(game) => {
            let mut state = SubstOnState::new(game.costs.clone(), horizon, tiebreak)?;
            for bid in &game.bids {
                state.submit(bid.clone())?;
            }
            for _ in 1..at {
                state.advance()?;
            }
            SnapshotDoc {
                format_version: SNAPSHOT_VERSION,
                mechanism: Mechanism::SubstOn,
                addon: Vec::new(),
                subston: Some(serde_json::to_value(&state).expect("state serializes")),
            }
        }
    };
    Ok(doc)
}

/// Entry point for `osp resume [<state.json>] [--wal <segment.wal>]
/// [--json]`.
///
/// The positional file is either a [`SnapshotDoc`] (the classic
/// single-game path) or a durable shard's [`ShardCheckpoint`]
/// (auto-detected); `--wal` adds — or, with no positional file at
/// all, *is* — the shard's log, replayed from the checkpoint's
/// sequence suffix exactly as crash recovery would.
pub fn resume(args: &[String], usage: &str) -> Result<(), String> {
    let mut as_json = false;
    let mut wal_path: Option<String> = None;
    let mut positional: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => as_json = true,
            "--wal" => {
                let v = it.next().ok_or("--wal needs a path")?;
                wal_path = Some(v.clone());
            }
            other if !other.starts_with("--") && positional.is_none() => {
                positional = Some(other.to_owned());
            }
            other => return Err(format!("unknown flag `{other}`\n{usage}")),
        }
    }
    let Some(path) = positional else {
        // WAL-only resume: replay the log into an empty registry.
        let wal_path = wal_path.ok_or_else(|| usage.to_owned())?;
        return resume_shard(None, Some(&wal_path), as_json);
    };
    let json = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // A shard checkpoint has `applied_seq` + `games`, a snapshot has
    // `mechanism` + states — the parses are mutually exclusive.
    if let Ok(ckpt) = serde_json::from_str::<ShardCheckpoint>(&json) {
        return resume_shard(Some(ckpt), wal_path.as_deref(), as_json);
    }
    if let Some(wal_path) = wal_path {
        return Err(format!(
            "--wal only combines with a shard checkpoint (shard-<k>.ckpt), \
             and {path} is not one; to replay {wal_path} alone, omit the positional file"
        ));
    }
    let doc: SnapshotDoc = serde_json::from_str(&json).map_err(|e| format!("bad snapshot: {e}"))?;
    if doc.format_version != SNAPSHOT_VERSION {
        return Err(format!(
            "unsupported snapshot format_version {} (expected {SNAPSHOT_VERSION})",
            doc.format_version
        ));
    }
    if doc.mechanism.is_subst() {
        let value = doc
            .subston
            .ok_or("substitutable snapshot is missing the subston state")?;
        let state: SubstOnState =
            serde_json::from_value(value).map_err(|e| format!("bad subston state: {e}"))?;
        let outcome = finish_subst(state).map_err(|e| e.to_string())?;
        if as_json {
            println!(
                "{}",
                serde_json::to_string_pretty(&outcome).map_err(|e| e.to_string())?
            );
        } else {
            render_subst(&outcome);
        }
    } else {
        if doc.addon.is_empty() {
            return Err("additive snapshot holds no states".to_owned());
        }
        let mut outcomes = Vec::with_capacity(doc.addon.len());
        for value in doc.addon {
            let state: AddOnState =
                serde_json::from_value(value).map_err(|e| format!("bad addon state: {e}"))?;
            outcomes.push(finish_add(state).map_err(|e| e.to_string())?);
        }
        if as_json {
            println!(
                "{}",
                serde_json::to_string_pretty(&outcomes).map_err(|e| e.to_string())?
            );
        } else {
            for (k, outcome) in outcomes.iter().enumerate() {
                render_add(k, outcome);
            }
        }
    }
    Ok(())
}

/// Resumes a durable shard: restore the checkpoint's games (if any),
/// replay the WAL suffix (records past the checkpoint's sequence, if
/// a log is given), then play every game out and print its outcome.
fn resume_shard(
    ckpt: Option<ShardCheckpoint>,
    wal_path: Option<&str>,
    as_json: bool,
) -> Result<(), String> {
    let mut registry = Registry::new(Engine::Incremental, 1);
    let mut applied_seq = 0u64;
    if let Some(ckpt) = ckpt {
        if ckpt.format_version != CHECKPOINT_VERSION {
            return Err(format!(
                "unsupported checkpoint format_version {} (expected {CHECKPOINT_VERSION})",
                ckpt.format_version
            ));
        }
        applied_seq = ckpt.applied_seq;
        for (game, doc) in ckpt.games {
            registry.insert_restored(game, doc)?;
        }
    }
    let mut replayed = 0u64;
    if let Some(path) = wal_path {
        let scanned = wal::read_wal(Path::new(path))?;
        if scanned.torn_bytes > 0 {
            eprintln!(
                "warning: {path} ends in a torn record ({} trailing bytes); dropped — \
                 the operation was never acknowledged",
                scanned.torn_bytes
            );
        }
        for record in scanned.records {
            if record.seq <= applied_seq {
                continue;
            }
            let _ = registry.handle(record.id, record.op);
            replayed += 1;
        }
    }
    if registry.is_empty() {
        return Err("nothing to resume: the checkpoint/log holds no games".to_owned());
    }
    eprintln!(
        "resumed {} game(s) ({} log record(s) replayed past seq {applied_seq})",
        registry.len(),
        replayed
    );
    let games = registry.checkpoint_games()?;
    let mut rendered = Vec::new();
    for (game, doc) in games {
        let mechanism = doc.mechanism_name();
        match osp_server::decode_snapshot(doc)? {
            GameState::Add(state) => {
                let outcome = finish_add(state).map_err(|e| e.to_string())?;
                if as_json {
                    rendered.push(serde_json::json!({
                        "game": game,
                        "mechanism": mechanism,
                        "outcome": serde_json::to_value(&outcome).map_err(|e| e.to_string())?,
                    }));
                } else {
                    println!("game {game} ({mechanism}):");
                    render_add(0, &outcome);
                }
            }
            GameState::Subst(state) => {
                let outcome = finish_subst(state).map_err(|e| e.to_string())?;
                if as_json {
                    rendered.push(serde_json::json!({
                        "game": game,
                        "mechanism": mechanism,
                        "outcome": serde_json::to_value(&outcome).map_err(|e| e.to_string())?,
                    }));
                } else {
                    println!("game {game} ({mechanism}):");
                    render_subst(&outcome);
                }
            }
        }
    }
    if as_json {
        println!(
            "{}",
            serde_json::to_string_pretty(&serde_json::Value::Array(rendered))
                .map_err(|e| e.to_string())?
        );
    }
    Ok(())
}

/// Plays out the remaining slots (resuming is "finish the game from
/// the checkpoint with no further arrivals").
fn finish_add(mut state: AddOnState) -> Result<AddOnOutcome, MechanismError> {
    while !state.is_finished() {
        state.advance()?;
    }
    state.finish()
}

fn finish_subst(mut state: SubstOnState) -> Result<SubstOnOutcome, MechanismError> {
    while !state.is_finished() {
        state.advance()?;
    }
    state.finish()
}

fn render_add(opt: usize, outcome: &AddOnOutcome) {
    match outcome.implemented_at {
        Some(slot) => println!("opt{opt}: implemented at {slot}, cost {}", outcome.cost),
        None => println!("opt{opt}: never implemented (cost {})", outcome.cost),
    }
    for (user, slot) in &outcome.first_serviced {
        let paid = outcome.payments.get(user).copied().unwrap_or(Money::ZERO);
        println!("  {user}: serviced from {slot}, pays {paid}");
    }
    let collected: Money = outcome.payments.values().copied().sum();
    println!("  collected {collected}");
}

fn render_subst(outcome: &SubstOnOutcome) {
    for (opt, slot) in &outcome.implemented_at {
        let k = opt.index() as usize;
        let cost = outcome.costs.get(k).copied().unwrap_or(Money::ZERO);
        println!("{opt}: implemented at {slot}, cost {cost}");
    }
    for (user, opt) in &outcome.assignments {
        let paid = outcome.payments.get(user).copied().unwrap_or(Money::ZERO);
        println!("  {user}: granted {opt}, pays {paid}");
    }
    let collected: Money = outcome.payments.values().copied().sum();
    println!("  collected {collected}");
}

#[cfg(test)]
mod tests {
    use std::str::FromStr;

    use super::*;

    #[test]
    fn offline_kinds_refuse_to_checkpoint() {
        let compiled = input::parse(input::template(input::GameKind::AddOff)).unwrap();
        assert!(build_snapshot(&compiled.game, 1, 1, TieBreak::LowestOptId).is_err());
    }

    #[test]
    fn checkpoint_then_finish_matches_a_straight_run() {
        let compiled = input::parse(input::template(input::GameKind::AddOn)).unwrap();
        let AnyGame::AddOn(games) = &compiled.game else {
            panic!("template is addon");
        };
        // Straight run to the end.
        let mut direct = AddOnState::new(games[0].cost, compiled.horizon).unwrap();
        for bid in &games[0].bids {
            direct.submit(bid.clone()).unwrap();
        }
        let direct = finish_add(direct).unwrap();
        // Checkpoint mid-game, decode, and finish.
        for at in 1..=compiled.horizon + 1 {
            let doc = build_snapshot(&compiled.game, compiled.horizon, at, TieBreak::LowestOptId)
                .unwrap();
            let [value] = <[_; 1]>::try_from(doc.addon).unwrap();
            let state: AddOnState = serde_json::from_value(value).unwrap();
            assert_eq!(finish_add(state).unwrap(), direct, "checkpoint at {at}");
        }
    }

    #[test]
    fn subston_checkpoint_round_trips() {
        let compiled = input::parse(input::template(input::GameKind::SubstOn)).unwrap();
        let doc =
            build_snapshot(&compiled.game, compiled.horizon, 2, TieBreak::LowestOptId).unwrap();
        let state: SubstOnState = serde_json::from_value(doc.subston.unwrap()).unwrap();
        let outcome = finish_subst(state).unwrap();
        assert!(!outcome.assignments.is_empty());
    }

    #[test]
    fn money_parses_exactly() {
        assert_eq!(Money::from_str("2.31").unwrap(), Money::from_cents(231));
    }
}
