//! The load generator: one thread that decodes each pre-encoded request
//! line, hands it to `ShardPool::try_submit`, drains replies with
//! `try_recv` and encodes each one — the per-request work of
//! `osp serve`'s pipe transport, so the wire codec is on the measured
//! path.

use std::hint::black_box;
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::time::{Duration, Instant};

use osp_server::protocol::{Request, Response};
use osp_server::ShardPool;

use crate::trace::{Tracer, ROOT};
use crate::workload::Stream;

/// How requests are offered.
#[derive(Debug, Clone, Copy)]
pub enum Loop {
    /// Keep `window` requests outstanding; send the next one as soon
    /// as a reply frees a slot.
    Closed {
        /// Outstanding requests.
        window: usize,
    },
    /// Slot-paced: release every request of slot `s` together, `s`
    /// periods after the pass starts, whatever the server's state —
    /// the bids of a slot and its ticks arrive when the slot closes.
    Open {
        /// Time between slot releases.
        period: Duration,
    },
}

/// A pass gives up on replies after this long without one.
const STALL_LIMIT: Duration = Duration::from_secs(60);

/// Stats are polled every this many sends in a traced pass.
const STATS_EVERY: usize = 256;
/// What one pass measured.
pub struct Pass {
    /// Seconds from the first send to the last reply encoded.
    pub window_s: f64,
    /// Reply per served request, `None` if it never came.
    pub replies: Vec<Option<Response>>,
    /// Open loop: ns from when each request was due to its reply
    /// encoded (`u64::MAX` when unanswered). Empty for a closed loop.
    pub latency_ns: Vec<u64>,
    /// Open loop: ns each send went out after it was due.
    pub late_ns: Vec<u64>,
    /// Requests handed back (queue full, or shard recovering) at least
    /// once and retried until accepted.
    pub retries: u64,
    /// Largest shard queue depth seen (traced passes only).
    pub queue_depth_max: u64,
    /// Bytes of request lines decoded and reply lines encoded.
    pub req_bytes: u64,
    /// See `req_bytes`.
    pub resp_bytes: u64,
}

struct Generator<'a> {
    pool: &'a ShardPool,
    stream: &'a Stream,
    first: usize,
    tx: Sender<Response>,
    rx: Receiver<Response>,
    start: Instant,
    /// Due offset of request `k` in ns; empty for a closed loop.
    due_ns: Vec<u64>,
    tracer: Option<&'a mut Tracer>,
    /// Traced: root span and submit-return time per request.
    roots: Vec<(u32, Instant)>,
    pass: Pass,
    answered: usize,
    last_reply: Instant,
}

impl Generator<'_> {
    fn due(&self, k: usize) -> Instant {
        self.start + Duration::from_nanos(self.due_ns[k])
    }

    /// Decodes request `k`'s line and hands it to the pool.
    fn send(&mut self, k: usize) {
        let (request, root) = self.decode(k);
        self.submit(k, request, root);
    }

    /// Decodes request `k`'s line; returns it with its root span.
    fn decode(&mut self, k: usize) -> (Request, u32) {
        let open = !self.due_ns.is_empty();
        let sent = Instant::now();
        if open {
            self.pass.late_ns[k] = sent.saturating_duration_since(self.due(k)).as_nanos() as u64;
        }
        let line = &self.stream.lines[self.first + k];
        self.pass.req_bytes += line.len() as u64;
        let request: Request = serde_json::from_str(line).expect("pre-encoded requests decode");
        let id = request.id;
        let decoded = self.tracer.is_some().then(Instant::now);
        let mut root = ROOT;
        let begin = if open { self.due(k) } else { sent };
        if let Some(tracer) = self.tracer.as_deref_mut() {
            root = tracer.span("loadgen.request", begin, begin, ROOT, id);
            if open {
                tracer.span("loadgen.late", begin, sent, root, id);
            }
            tracer.span("protocol.decode", sent, decoded.expect("traced"), root, id);
            if k.is_multiple_of(STATS_EVERY) {
                let depth = self.pool.stats().iter().map(|s| s.queue_depth).max();
                self.pass.queue_depth_max = self.pass.queue_depth_max.max(depth.unwrap_or(0));
            }
        }
        (request, root)
    }

    /// Hands request `k` to the pool, retrying while it is handed back.
    fn submit(&mut self, k: usize, request: Request, root: u32) {
        let id = request.id;
        let mut pending = request;
        let mut handed_back = false;
        let accepted_call = loop {
            let before = self.tracer.is_some().then(Instant::now);
            match self.pool.try_submit(pending, &self.tx) {
                Ok(()) => break before,
                Err((back, _)) => {
                    pending = back;
                    handed_back = true;
                    // Keep replies flowing while the shard catches up,
                    // so their latency is not charged for this wait.
                    self.drain();
                }
            }
        };
        self.pass.retries += u64::from(handed_back);
        if let Some(tracer) = self.tracer.as_deref_mut() {
            let after = Instant::now();
            tracer.span(
                "shard.submit",
                accepted_call.expect("traced"),
                after,
                root,
                id,
            );
            self.roots[k] = (root, after);
        }
    }

    /// Handles one reply if one is waiting; `false` if none was.
    fn drain(&mut self) -> bool {
        let response = match self.rx.try_recv() {
            Ok(response) => response,
            Err(TryRecvError::Empty) => return false,
            Err(TryRecvError::Disconnected) => unreachable!("the generator holds a sender"),
        };
        let received = self.tracer.is_some().then(Instant::now);
        let line = serde_json::to_string(&response).expect("responses encode");
        self.pass.resp_bytes += line.len() as u64;
        black_box(line);
        let done = Instant::now();
        self.last_reply = done;
        let n = self.pass.replies.len();
        let slot = (response.id as usize)
            .checked_sub(self.first + 1)
            .filter(|&k| k < n);
        let Some(k) = slot else {
            // A reply to nothing this pass sent: checked as wrong
            // because its request's slot stays empty or mismatched.
            return true;
        };
        if let Some(tracer) = self.tracer.as_deref_mut() {
            let (root, submitted) = self.roots[k];
            let id = response.id;
            let received = received.expect("traced");
            tracer.span("shard.roundtrip", submitted, received, root, id);
            tracer.span("protocol.encode", received, done, root, id);
            tracer.close(root, done);
        }
        if !self.due_ns.is_empty() {
            self.pass.latency_ns[k] = done.saturating_duration_since(self.due(k)).as_nanos() as u64;
        }
        if self.pass.replies[k].replace(response).is_none() {
            self.answered += 1;
        }
        true
    }
}

/// Serves requests `range` of `stream` through `pool`, one generator
/// thread, until every request is answered (or replies stall for a
/// minute). Recording spans when `tracer` is given.
pub fn serve(
    pool: &ShardPool,
    stream: &Stream,
    range: Range<usize>,
    mode: Loop,
    tracer: Option<&mut Tracer>,
) -> Pass {
    let n = range.len();
    let open = matches!(mode, Loop::Open { .. });
    let due_ns = match mode {
        Loop::Open { period } => {
            let first = stream.release[range.start];
            let period = period.as_nanos() as u64;
            stream.release[range.clone()]
                .iter()
                .map(|&slot| u64::from(slot - first) * period)
                .collect()
        }
        Loop::Closed { .. } => Vec::new(),
    };
    let (tx, rx) = channel();
    let traced = tracer.is_some();
    let now = Instant::now();
    let mut g = Generator {
        pool,
        stream,
        first: range.start,
        tx,
        rx,
        start: now,
        due_ns,
        tracer,
        roots: if traced {
            vec![(ROOT, now); n]
        } else {
            Vec::new()
        },
        pass: Pass {
            window_s: 0.0,
            replies: vec![None; n],
            latency_ns: if open { vec![u64::MAX; n] } else { Vec::new() },
            late_ns: if open { vec![0; n] } else { Vec::new() },
            retries: 0,
            queue_depth_max: 0,
            req_bytes: 0,
            resp_bytes: 0,
        },
        answered: 0,
        last_reply: now,
    };
    let mut next = 0;
    let mut idle = 0u32;
    while g.answered < n {
        let ready = next < n
            && match mode {
                Loop::Closed { window } => next - g.answered < window,
                Loop::Open { .. } => Instant::now() >= g.due(next),
            };
        if ready {
            g.send(next);
            next += 1;
        } else if g.drain() {
            idle = 0;
        } else {
            idle = idle.wrapping_add(1);
            if idle.is_multiple_of(4096) && g.last_reply.max(g.start).elapsed() > STALL_LIMIT {
                break;
            }
            std::hint::spin_loop();
        }
    }
    let Generator {
        mut pass,
        tracer,
        roots,
        start,
        last_reply,
        ..
    } = g;
    pass.window_s = last_reply.saturating_duration_since(start).as_secs_f64();
    if let Some(tracer) = tracer {
        // Unanswered requests end their root span where the pass ended.
        for (k, reply) in pass.replies.iter().enumerate() {
            if reply.is_none() && roots[k].0 != ROOT {
                tracer.close(roots[k].0, last_reply);
            }
        }
    }
    pass
}
