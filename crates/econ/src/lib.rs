//! # osp-econ — economic primitives for shared-optimization pricing
//!
//! This crate provides the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`Ratio`] — an exact, normalized rational number over `i128`. All
//!   mechanism arithmetic is exact: cost shares are fractions of the form
//!   `C_j / |S_j|`, and the truthfulness and cost-recovery guarantees of
//!   the mechanisms hinge on users at the threshold `b_ij = C_j / |S_j|`
//!   being classified correctly. Floating point cannot promise that.
//! * [`Money`] — a currency amount backed by [`Ratio`].
//! * [`UserId`], [`OptId`], [`SlotId`] — typed identifiers for the three
//!   index sets of the paper (users `I`, optimizations `J`, time-slots
//!   `T`; Table 1 of the paper).
//! * [`ValueSchedule`] — the function `v_ij(t)` mapping (user,
//!   optimization, slot) to a value, used both as "true values" in
//!   experiments and to derive truthful bids.
//! * [`ResidualTracker`] — per-user *running* residuals
//!   `Σ_{τ ≥ t} v(τ)`, the O(1)-per-slot form of the quantity the
//!   online mechanisms bid every slot.
//! * [`valuation`] — the additive (Eq. 1) and substitutable (§6)
//!   valuation models.
//! * [`ledger`] — payment/cost bookkeeping and the derived statistics
//!   (total utility Eq. 3, cost recovery Eq. 4, cloud balance).
//!
//! The crate is deliberately mechanism-agnostic: `osp-core` (the
//! mechanisms) and `osp-regret` (the baseline) both build on it, which
//! guarantees that the experiments in `osp-bench` compare the two
//! approaches on identical accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fastmap;
pub mod ids;
pub mod ledger;
pub mod money;
pub mod num;
pub mod residual;
pub mod schedule;
pub mod valuation;

pub use fastmap::{FastMap, FastSet};
pub use ids::{OptId, SlotId, UserId};
pub use ledger::{Ledger, Stats, UserStats};
pub use money::Money;
pub use num::ratio::Ratio;
pub use residual::ResidualTracker;
pub use schedule::{SlotSeries, ValueSchedule};
pub use valuation::{AdditiveValuation, SubstitutableValuation, Valuation};
