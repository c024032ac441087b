//! Model-checking *real programs*: the distributed application as a
//! transition system.
//!
//! This is the heart of the ModelD design (§4.3): "the events in the
//! system are mapped to actions \[...\] each event is a state transition
//! within the model checker", executed against the **actual
//! [`Program`] implementations** — not abstract models. The network is
//! the one environment component FixD does not control, so it is replaced
//! by a [`NetModel`] (swap real communication actions for modeled ones,
//! exactly the action-swap §4.3 describes).
//!
//! State = every process's real state + FIFO channel contents + pending
//! timers. Actions = start a process, deliver the head of a channel, fire
//! a timer, plus whatever fault branches the [`NetModel`] enables.
//!
//! States are copy-on-write. A successor shares every process and
//! channel the transition left alone with its parent: only the acting
//! process's program and harness are copied (and only while another state
//! still holds them), taking a message off a channel advances a head
//! index, and appending to a channel copies its live messages only when
//! the buffer is shared. Fingerprints reuse cached hashes — one per
//! process, refreshed after each of its handlers runs, and one per queued
//! message, computed when it enters a channel — so fingerprinting a state
//! snapshots no program and encodes no message.

use std::collections::VecDeque;
use std::sync::Arc;

use fixd_runtime::wire::{fnv1a, fnv_mix};
use fixd_runtime::{Effects, Payload, Pid, Program, SharedMessage, SoloHarness, TimerId};

use crate::envmodel::NetModel;
use crate::system::TransitionSystem;

/// A transition of the distributed application under investigation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelAction {
    /// Run a process's `on_start`.
    Start { pid: Pid },
    /// Deliver the head of channel `src → dst`.
    Deliver { src: Pid, dst: Pid },
    /// Fire the oldest pending timer of `pid`.
    FireTimer { pid: Pid },
    /// Environment model: lose the head of channel `src → dst`.
    DropHead { src: Pid, dst: Pid },
    /// Environment model: duplicate the head of channel `src → dst`.
    DupHead { src: Pid, dst: Pid },
    /// Environment model: crash-stop `pid`.
    Crash { pid: Pid },
}

impl ModelAction {
    /// Short human-readable rendering.
    pub fn describe(&self) -> String {
        match self {
            ModelAction::Start { pid } => format!("start {pid}"),
            ModelAction::Deliver { src, dst } => format!("deliver {src}→{dst}"),
            ModelAction::FireTimer { pid } => format!("timer {pid}"),
            ModelAction::DropHead { src, dst } => format!("LOSE {src}→{dst}"),
            ModelAction::DupHead { src, dst } => format!("DUP {src}→{dst}"),
            ModelAction::Crash { pid } => format!("CRASH {pid}"),
        }
    }
}

/// The messages of one channel buffer, each beside its
/// [`fixd_runtime::Message::content_fingerprint`].
#[derive(Clone, Default)]
struct Queue {
    msgs: Vec<SharedMessage>,
    fps: Vec<u64>,
}

/// One FIFO channel: a message buffer shared with every state that has
/// not changed the channel since, plus the index of the live head.
/// `buf` is `None` exactly when the channel is empty; otherwise
/// `head < buf.msgs.len()`.
#[derive(Clone, Default)]
struct Channel {
    buf: Option<Arc<Queue>>,
    head: usize,
}

impl Channel {
    /// The queued messages, oldest first.
    fn messages(&self) -> &[SharedMessage] {
        match &self.buf {
            Some(q) => &q.msgs[self.head..],
            None => &[],
        }
    }

    /// Their content fingerprints, in the same order.
    fn fingerprints(&self) -> &[u64] {
        match &self.buf {
            Some(q) => &q.fps[self.head..],
            None => &[],
        }
    }

    /// Take the head message: advances the head, copies no buffer.
    fn pop_front(&mut self) -> Option<SharedMessage> {
        let q = self.buf.as_ref()?;
        let msg = q.msgs[self.head].clone();
        self.head += 1;
        if self.head == q.msgs.len() {
            *self = Channel::default();
        }
        Some(msg)
    }

    /// Append a message whose content fingerprint is `fp`. A buffer still
    /// shared with another state is replaced by a private copy of its
    /// live tail; a private one drops its consumed prefix in place.
    fn push_back(&mut self, msg: SharedMessage, fp: u64) {
        let head = std::mem::take(&mut self.head);
        let buf = self.buf.get_or_insert_with(Default::default);
        match Arc::get_mut(buf) {
            Some(q) => {
                q.msgs.drain(..head);
                q.fps.drain(..head);
            }
            None => {
                *buf = Arc::new(Queue {
                    msgs: buf.msgs[head..].to_vec(),
                    fps: buf.fps[head..].to_vec(),
                })
            }
        }
        let q = Arc::get_mut(buf).expect("buffer is private after the copy");
        q.msgs.push(msg);
        q.fps.push(fp);
    }
}

/// Global state of the application under investigation.
///
/// Cloning shares every program, harness and channel buffer; [`WorldModel`]
/// copies one only when a transition changes it.
#[derive(Clone)]
pub struct WorldState {
    procs: Vec<Arc<dyn Program>>,
    harnesses: Vec<Arc<SoloHarness>>,
    /// `fnv1a(procs[i].snapshot())`, refreshed after each handler run.
    proc_fps: Vec<u64>,
    /// FIFO channels, indexed `src * width + dst`.
    channels: Vec<Channel>,
    /// Pending timers per process, oldest first.
    timers: Vec<VecDeque<TimerId>>,
    started: Vec<bool>,
    crashed: Vec<bool>,
    crashes_used: usize,
    /// Collected outputs (flat, for invariants over observable behavior).
    /// Shared handles aliasing the producing handlers' effects.
    outputs: Vec<(Pid, Payload)>,
}

impl std::fmt::Debug for WorldState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WorldState(n={}, mail={}, timers={})",
            self.procs.len(),
            self.mail_count(),
            self.timers.iter().map(VecDeque::len).sum::<usize>()
        )
    }
}

impl WorldState {
    /// A state of fresh or restored processes with the given channel
    /// contents and pending timers.
    fn build(
        programs: Vec<Box<dyn Program>>,
        harnesses: Vec<SoloHarness>,
        inflight: Vec<SharedMessage>,
        timers: Vec<(Pid, TimerId)>,
        started: bool,
    ) -> Self {
        let n = programs.len();
        assert_eq!(harnesses.len(), n);
        let mut s = WorldState {
            proc_fps: programs.iter().map(|p| fnv1a(&p.snapshot())).collect(),
            procs: programs.into_iter().map(Arc::from).collect(),
            harnesses: harnesses.into_iter().map(Arc::new).collect(),
            channels: vec![Channel::default(); n * n],
            timers: vec![VecDeque::new(); n],
            started: vec![started; n],
            crashed: vec![false; n],
            crashes_used: 0,
            outputs: Vec::new(),
        };
        for m in inflight {
            s.enqueue(m);
        }
        for (pid, t) in timers {
            s.timers[pid.idx()].push_back(t);
        }
        s
    }

    /// Number of processes.
    pub fn width(&self) -> usize {
        self.procs.len()
    }

    /// Typed view of a process's program (for invariants).
    pub fn program<P: 'static>(&self, pid: Pid) -> Option<&P> {
        self.procs.get(pid.idx())?.as_any().downcast_ref::<P>()
    }

    /// Messages queued on channel `src → dst`, oldest first.
    pub fn channel(&self, src: Pid, dst: Pid) -> &[SharedMessage] {
        self.channels[self.channel_index(src, dst)].messages()
    }

    /// Total undelivered messages.
    pub fn mail_count(&self) -> usize {
        self.channels.iter().map(|c| c.messages().len()).sum()
    }

    /// Has `pid` crashed (in this explored branch)?
    pub fn is_crashed(&self, pid: Pid) -> bool {
        self.crashed[pid.idx()]
    }

    /// Has `pid` started?
    pub fn is_started(&self, pid: Pid) -> bool {
        self.started[pid.idx()]
    }

    /// Outputs emitted along this branch, in order.
    pub fn outputs(&self) -> &[(Pid, Payload)] {
        &self.outputs
    }

    /// Pending timer count of `pid`.
    pub fn timer_count(&self, pid: Pid) -> usize {
        self.timers[pid.idx()].len()
    }

    fn channel_index(&self, src: Pid, dst: Pid) -> usize {
        src.idx() * self.procs.len() + dst.idx()
    }

    /// Queue `m` on its channel, fingerprinting its content once.
    fn enqueue(&mut self, m: SharedMessage) {
        let idx = self.channel_index(m.src, m.dst);
        let fp = m.content_fingerprint();
        self.channels[idx].push_back(m, fp);
    }

    /// Run one handler of `pid` on a private copy of its program and
    /// harness (copied only if another state shares them), then refresh
    /// the process's cached snapshot hash.
    fn run_handler(
        &mut self,
        pid: Pid,
        call: impl FnOnce(&mut SoloHarness, &mut dyn Program) -> Effects,
    ) -> Effects {
        let i = pid.idx();
        let slot = &mut self.procs[i];
        if Arc::get_mut(slot).is_none() {
            *slot = Arc::from(slot.clone_program());
        }
        let program = Arc::get_mut(slot).expect("program is private after the copy");
        let eff = call(Arc::make_mut(&mut self.harnesses[i]), program);
        self.proc_fps[i] = fnv1a(&program.snapshot());
        eff
    }
}

/// The application + environment model as a [`TransitionSystem`].
pub struct WorldModel {
    width: usize,
    seed: u64,
    net: NetModel,
    factory: std::sync::Arc<dyn Fn() -> Vec<Box<dyn Program>> + Send + Sync>,
    init_from: Option<WorldState>,
    /// Include clocks/RNG positions in fingerprints. Off by default:
    /// states that differ only in clock values merge, which is what you
    /// want unless programs branch on `ctx.random()`.
    pub strict_fingerprint: bool,
}

impl WorldModel {
    /// A model whose initial state is `factory()` (fresh programs,
    /// nothing started). `seed` must match the production world if
    /// trails are to be re-executed there.
    pub fn new(
        seed: u64,
        net: NetModel,
        factory: impl Fn() -> Vec<Box<dyn Program>> + Send + Sync + 'static,
    ) -> Self {
        let width = factory().len();
        Self {
            width,
            seed,
            net,
            factory: std::sync::Arc::new(factory),
            init_from: None,
            strict_fingerprint: false,
        }
    }

    /// Investigate **from a restored global state** rather than from
    /// scratch — FixD's key advantage over CMC-style checking (Fig. 4:
    /// the checkpoints the peer processes provide are assembled into this
    /// state).
    pub fn from_state(seed: u64, net: NetModel, state: WorldState) -> Self {
        Self {
            width: state.width(),
            seed,
            net,
            factory: std::sync::Arc::new(Vec::new),
            init_from: Some(state),
            strict_fingerprint: false,
        }
    }

    /// **Swap the environment model** mid-investigation (§4.3: "swap out
    /// the real communication actions, replace those with models").
    pub fn set_net(&mut self, net: NetModel) {
        self.net = net;
    }

    /// Current environment model.
    pub fn net(&self) -> NetModel {
        self.net
    }

    /// Number of processes.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Build a [`WorldState`] from restored programs + channel contents
    /// (the assembly step of the Fig. 4 protocol).
    pub fn assemble_state(
        programs: Vec<Box<dyn Program>>,
        harnesses: Vec<SoloHarness>,
        inflight: Vec<SharedMessage>,
        timers: Vec<(Pid, TimerId)>,
    ) -> WorldState {
        // Restored processes are mid-run.
        WorldState::build(programs, harnesses, inflight, timers, true)
    }

    fn route_effects(&self, s: &mut WorldState, pid: Pid, effects: Effects) {
        let n = s.procs.len();
        for m in effects.sends {
            if m.dst.idx() < n {
                s.enqueue(m);
            }
        }
        for (t, _fire_at) in effects.timers_set {
            s.timers[pid.idx()].push_back(t);
        }
        for t in effects.timers_cancelled {
            s.timers[pid.idx()].retain(|x| *x != t);
        }
        for o in effects.outputs {
            s.outputs.push((pid, o));
        }
        if effects.crashed {
            s.crashed[pid.idx()] = true;
            s.timers[pid.idx()].clear();
        }
    }
}

impl TransitionSystem for WorldModel {
    type State = WorldState;
    type Label = ModelAction;

    fn initial(&self) -> WorldState {
        if let Some(s) = &self.init_from {
            return s.clone();
        }
        let procs = (self.factory)();
        let n = procs.len();
        let harnesses = (0..n)
            .map(|i| SoloHarness::new(Pid(i as u32), n, self.seed))
            .collect();
        WorldState::build(procs, harnesses, Vec::new(), Vec::new(), false)
    }

    fn fingerprint(&self, s: &WorldState) -> u64 {
        let mut h = FINGERPRINT_SEED;
        for (i, &fp) in s.proc_fps.iter().enumerate() {
            h = fnv_mix(h, fp);
            h = fnv_mix(h, u64::from(s.started[i]) | (u64::from(s.crashed[i]) << 1));
            h = fnv_mix(h, s.timers[i].len() as u64);
        }
        for ch in &s.channels {
            let fps = ch.fingerprints();
            h = fnv_mix(h, fps.len() as u64);
            for &fp in fps {
                h = fnv_mix(h, fp);
            }
        }
        if self.strict_fingerprint {
            for hs in &s.harnesses {
                for (p, c) in hs.vc().entries() {
                    h = fnv_mix(h, u64::from(p.0));
                    h = fnv_mix(h, c);
                }
                h = fnv_mix(h, hs.rng_draws());
            }
            for tq in &s.timers {
                for t in tq {
                    h = fnv_mix(h, t.0);
                }
            }
        }
        h
    }

    fn enabled(&self, s: &WorldState) -> Vec<ModelAction> {
        let n = s.procs.len();
        let mut out = Vec::new();
        for i in 0..n {
            let pid = Pid(i as u32);
            if !s.started[i] && !s.crashed[i] {
                out.push(ModelAction::Start { pid });
            }
        }
        for src in 0..n {
            for dst in 0..n {
                let ch = &s.channels[src * n + dst];
                if ch.messages().is_empty() || s.crashed[dst] || !s.started[dst] {
                    continue;
                }
                let (src, dst) = (Pid(src as u32), Pid(dst as u32));
                out.push(ModelAction::Deliver { src, dst });
                if self.net.allow_loss {
                    out.push(ModelAction::DropHead { src, dst });
                }
                if self.net.allow_dup {
                    out.push(ModelAction::DupHead { src, dst });
                }
            }
        }
        for i in 0..n {
            if s.started[i] && !s.crashed[i] && !s.timers[i].is_empty() {
                out.push(ModelAction::FireTimer { pid: Pid(i as u32) });
            }
        }
        if s.crashes_used < self.net.crash_budget {
            for i in 0..n {
                if s.started[i] && !s.crashed[i] {
                    out.push(ModelAction::Crash { pid: Pid(i as u32) });
                }
            }
        }
        out
    }

    fn apply(&self, s: &WorldState, l: &ModelAction) -> WorldState {
        let mut next = s.clone();
        match *l {
            ModelAction::Start { pid } => {
                next.started[pid.idx()] = true;
                let eff = next.run_handler(pid, |h, p| h.start(p));
                self.route_effects(&mut next, pid, eff);
            }
            ModelAction::Deliver { src, dst } => {
                let idx = next.channel_index(src, dst);
                let msg = next.channels[idx]
                    .pop_front()
                    .expect("guard ensured nonempty channel");
                let eff = next.run_handler(dst, |h, p| h.deliver(p, &msg));
                self.route_effects(&mut next, dst, eff);
            }
            ModelAction::FireTimer { pid } => {
                let t = next.timers[pid.idx()]
                    .pop_front()
                    .expect("guard ensured pending timer");
                let eff = next.run_handler(pid, |h, p| h.timer(p, t));
                self.route_effects(&mut next, pid, eff);
            }
            ModelAction::DropHead { src, dst } => {
                let idx = next.channel_index(src, dst);
                next.channels[idx].pop_front();
            }
            ModelAction::DupHead { src, dst } => {
                let idx = next.channel_index(src, dst);
                let ch = &mut next.channels[idx];
                let head = ch
                    .messages()
                    .first()
                    .cloned()
                    .expect("guard ensured nonempty channel");
                let fp = ch.fingerprints()[0];
                ch.push_back(head, fp);
            }
            ModelAction::Crash { pid } => {
                next.crashed[pid.idx()] = true;
                next.crashes_used += 1;
                next.timers[pid.idx()].clear();
            }
        }
        next
    }

    fn label_name(&self, l: &ModelAction) -> String {
        l.describe()
    }

    /// Conservative Mazurkiewicz independence: two actions commute if the
    /// processes and channels they touch are disjoint. A `Deliver` touches
    /// its channel, its destination process, and (through the sends the
    /// handler performs) every channel out of the destination.
    fn independent(&self, a: &ModelAction, b: &ModelAction) -> bool {
        fn touched(l: &ModelAction) -> (Option<Pid>, Option<(Pid, Pid)>) {
            match l {
                ModelAction::Start { pid }
                | ModelAction::FireTimer { pid }
                | ModelAction::Crash { pid } => (Some(*pid), None),
                ModelAction::Deliver { src, dst } => (Some(*dst), Some((*src, *dst))),
                ModelAction::DropHead { src, dst } | ModelAction::DupHead { src, dst } => {
                    (None, Some((*src, *dst)))
                }
            }
        }
        let (pa, ca) = touched(a);
        let (pb, cb) = touched(b);
        // Same channel touched => dependent.
        if let (Some(x), Some(y)) = (ca, cb) {
            if x == y {
                return false;
            }
        }
        // Same process runs a handler => dependent.
        if let (Some(x), Some(y)) = (pa, pb) {
            if x == y {
                return false;
            }
        }
        // A handler at p feeds channels (p, *): dependent with any action
        // touching such a channel.
        if let (Some(p), Some((s, _))) = (pa, cb) {
            if p == s {
                return false;
            }
        }
        if let (Some(p), Some((s, _))) = (pb, ca) {
            if p == s {
                return false;
            }
        }
        true
    }
}

/// Stable basis for [`WorldModel`] fingerprints (distinct from other
/// fingerprint domains in the workspace).
const FINGERPRINT_SEED: u64 = 0x1995_0604_F1BD_0001;

#[cfg(test)]
mod tests {
    use super::*;
    use fixd_runtime::Context;
    use fixd_runtime::Message;

    /// Two-process increment protocol with a deliberate race: both update
    /// a "replicated register" and echo; the register must converge.
    struct Reg {
        val: u8,
        echoes: u8,
    }
    impl Program for Reg {
        fn on_start(&mut self, ctx: &mut Context) {
            // Both processes propose pid+1 as the value.
            let proposal = ctx.pid().0 as u8 + 1;
            self.val = proposal;
            let other = Pid(1 - ctx.pid().0);
            ctx.send(other, 1, vec![proposal]);
        }
        fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
            if msg.tag == 1 {
                // last-writer-wins: the race makes final values diverge
                // depending on interleaving.
                self.val = msg.payload[0];
                ctx.send(msg.src, 2, vec![self.val]);
            } else {
                self.echoes += 1;
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            vec![self.val, self.echoes]
        }
        fn restore(&mut self, b: &[u8]) {
            self.val = b[0];
            self.echoes = b[1];
        }
        fn clone_program(&self) -> Box<dyn Program> {
            Box::new(Reg {
                val: self.val,
                echoes: self.echoes,
            })
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn model(net: NetModel) -> WorldModel {
        WorldModel::new(7, net, || {
            vec![
                Box::new(Reg { val: 0, echoes: 0 }) as Box<dyn Program>,
                Box::new(Reg { val: 0, echoes: 0 }),
            ]
        })
    }

    #[test]
    fn initial_state_nothing_started() {
        let m = model(NetModel::reliable());
        let s = m.initial();
        assert_eq!(s.width(), 2);
        assert!(!s.is_started(Pid(0)));
        assert_eq!(s.mail_count(), 0);
        let enabled = m.enabled(&s);
        assert_eq!(enabled.len(), 2, "only the two Start actions");
    }

    #[test]
    fn apply_start_enqueues_mail() {
        let m = model(NetModel::reliable());
        let s0 = m.initial();
        let s1 = m.apply(&s0, &ModelAction::Start { pid: Pid(0) });
        assert!(s1.is_started(Pid(0)));
        assert_eq!(s1.mail_count(), 1);
        assert_eq!(s1.channel(Pid(0), Pid(1)).len(), 1);
        // Source state untouched.
        assert_eq!(s0.mail_count(), 0);
    }

    #[test]
    fn deliver_requires_started_destination() {
        let m = model(NetModel::reliable());
        let s0 = m.initial();
        let s1 = m.apply(&s0, &ModelAction::Start { pid: Pid(0) });
        // P1 not started: no deliver to P1 enabled.
        assert!(!m
            .enabled(&s1)
            .iter()
            .any(|a| matches!(a, ModelAction::Deliver { dst, .. } if *dst == Pid(1))));
        let s2 = m.apply(&s1, &ModelAction::Start { pid: Pid(1) });
        assert!(m
            .enabled(&s2)
            .iter()
            .any(|a| matches!(a, ModelAction::Deliver { dst, .. } if *dst == Pid(1))));
    }

    #[test]
    fn fingerprint_merges_equal_states() {
        let m = model(NetModel::reliable());
        let s0 = m.initial();
        // Start P0 then P1 vs P1 then P0: both yield "both started, two
        // proposals in flight" — but program states differ? No: each
        // start only writes its own val. Same fingerprint expected.
        let a = m.apply(
            &m.apply(&s0, &ModelAction::Start { pid: Pid(0) }),
            &ModelAction::Start { pid: Pid(1) },
        );
        let b = m.apply(
            &m.apply(&s0, &ModelAction::Start { pid: Pid(1) }),
            &ModelAction::Start { pid: Pid(0) },
        );
        assert_eq!(m.fingerprint(&a), m.fingerprint(&b));
        assert_ne!(m.fingerprint(&a), m.fingerprint(&s0));
    }

    #[test]
    fn lossy_model_adds_drop_actions() {
        let m = model(NetModel::lossy());
        let s = m.apply(&m.initial(), &ModelAction::Start { pid: Pid(0) });
        let s = m.apply(&s, &ModelAction::Start { pid: Pid(1) });
        let acts = m.enabled(&s);
        assert!(acts
            .iter()
            .any(|a| matches!(a, ModelAction::DropHead { .. })));
        // Dropping removes the message.
        let dropped = m.apply(
            &s,
            &ModelAction::DropHead {
                src: Pid(0),
                dst: Pid(1),
            },
        );
        assert_eq!(dropped.channel(Pid(0), Pid(1)).len(), 0);
    }

    #[test]
    fn crash_budget_limits_crash_actions() {
        let m = model(NetModel::crashy(1));
        let s = m.apply(&m.initial(), &ModelAction::Start { pid: Pid(0) });
        assert!(m
            .enabled(&s)
            .iter()
            .any(|a| matches!(a, ModelAction::Crash { .. })));
        let s2 = m.apply(&s, &ModelAction::Crash { pid: Pid(0) });
        assert!(s2.is_crashed(Pid(0)));
        assert!(!m
            .enabled(&s2)
            .iter()
            .any(|a| matches!(a, ModelAction::Crash { .. })));
    }

    #[test]
    fn independence_is_conservative() {
        let m = model(NetModel::reliable());
        let d01 = ModelAction::Deliver {
            src: Pid(0),
            dst: Pid(1),
        };
        let d10 = ModelAction::Deliver {
            src: Pid(1),
            dst: Pid(0),
        };
        // Delivery at P1 may send into channel (1,0): dependent.
        assert!(!m.independent(&d01, &d10));
        let t0 = ModelAction::FireTimer { pid: Pid(0) };
        let c23 = ModelAction::Deliver {
            src: Pid(2),
            dst: Pid(3),
        };
        assert!(m.independent(&t0, &c23));
        assert!(!m.independent(&t0, &t0));
    }

    #[test]
    fn assemble_state_places_mail_and_timers() {
        let procs: Vec<Box<dyn Program>> = vec![
            Box::new(Reg { val: 3, echoes: 0 }),
            Box::new(Reg { val: 3, echoes: 0 }),
        ];
        let harnesses = vec![
            SoloHarness::new(Pid(0), 2, 7),
            SoloHarness::new(Pid(1), 2, 7),
        ];
        let msg = Message {
            id: 1,
            src: Pid(0),
            dst: Pid(1),
            tag: 1,
            payload: vec![9].into(),
            sent_at: 0,
            vc: fixd_runtime::VectorClock::new(2),
            meta: fixd_runtime::MsgMeta::default(),
        };
        let s = WorldModel::assemble_state(
            procs,
            harnesses,
            vec![msg.into()],
            vec![(Pid(0), TimerId(4))],
        );
        assert!(s.is_started(Pid(0)), "restored processes are mid-run");
        assert_eq!(s.channel(Pid(0), Pid(1)).len(), 1);
        assert_eq!(s.timer_count(Pid(0)), 1);
    }

    /// The from-scratch fingerprint the cached one must reproduce: every
    /// program snapshotted and every queued message encoded anew.
    fn reference_fingerprint(m: &WorldModel, s: &WorldState) -> u64 {
        let n = s.width();
        let mut h = FINGERPRINT_SEED;
        for i in 0..n {
            let pid = Pid(i as u32);
            h = fnv_mix(h, fnv1a(&s.procs[i].snapshot()));
            h = fnv_mix(
                h,
                u64::from(s.is_started(pid)) | (u64::from(s.is_crashed(pid)) << 1),
            );
            h = fnv_mix(h, s.timer_count(pid) as u64);
        }
        for src in 0..n {
            for dst in 0..n {
                let ch = s.channel(Pid(src as u32), Pid(dst as u32));
                h = fnv_mix(h, ch.len() as u64);
                for msg in ch {
                    h = fnv_mix(h, msg.content_fingerprint());
                }
            }
        }
        if m.strict_fingerprint {
            for hs in &s.harnesses {
                for (p, c) in hs.vc().entries() {
                    h = fnv_mix(h, u64::from(p.0));
                    h = fnv_mix(h, c);
                }
                h = fnv_mix(h, hs.rng_draws());
            }
            for tq in &s.timers {
                for t in tq {
                    h = fnv_mix(h, t.0);
                }
            }
        }
        h
    }

    /// Everything a transition could wrongly change in a state it shares
    /// buffers with: program snapshots, channel contents, timers, flags.
    fn observe(m: &WorldModel, s: &WorldState) -> (u64, u64, Vec<Vec<u8>>, Vec<Vec<u64>>) {
        let n = s.width();
        let channels = (0..n * n)
            .map(|c| {
                s.channel(Pid((c / n) as u32), Pid((c % n) as u32))
                    .iter()
                    .map(|msg| msg.id)
                    .collect()
            })
            .collect();
        (
            m.fingerprint(s),
            reference_fingerprint(m, s),
            s.procs.iter().map(|p| p.snapshot()).collect(),
            channels,
        )
    }

    /// Three processes with timers, ring sends, self-sends and RNG
    /// draws: walks over it under an adversarial network take every
    /// [`ModelAction`] kind and every channel-buffer path.
    struct Gossip {
        seen: u32,
        sum: u64,
        ticks: u8,
    }
    impl Program for Gossip {
        fn on_start(&mut self, ctx: &mut Context) {
            let n = ctx.world_size() as u32;
            ctx.set_timer(5);
            ctx.send(Pid((ctx.pid().0 + 1) % n), 1, vec![ctx.pid().0 as u8]);
        }
        fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
            let n = ctx.world_size() as u32;
            self.seen += 1;
            self.sum = self
                .sum
                .wrapping_mul(31)
                .wrapping_add(u64::from(msg.payload[0]));
            if self.seen < 4 {
                let v = (self.sum % 251) as u8;
                ctx.send(Pid((ctx.pid().0 + 1) % n), 1, vec![v]);
            }
            if self.seen.is_multiple_of(2) {
                ctx.send(ctx.pid(), 2, vec![self.seen as u8]);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context, _t: TimerId) {
            let n = ctx.world_size() as u32;
            self.ticks += 1;
            let coin = (ctx.random() & 1) as u8;
            ctx.send(Pid((ctx.pid().0 + 2) % n), 3, vec![self.ticks, coin]);
            if self.ticks < 2 {
                ctx.set_timer(5);
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            let mut b = self.seen.to_le_bytes().to_vec();
            b.extend_from_slice(&self.sum.to_le_bytes());
            b.push(self.ticks);
            b
        }
        fn restore(&mut self, b: &[u8]) {
            self.seen = u32::from_le_bytes(b[0..4].try_into().unwrap());
            self.sum = u64::from_le_bytes(b[4..12].try_into().unwrap());
            self.ticks = b[12];
        }
        fn clone_program(&self) -> Box<dyn Program> {
            Box::new(Gossip {
                seen: self.seen,
                sum: self.sum,
                ticks: self.ticks,
            })
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn gossip_model(strict: bool) -> WorldModel {
        let mut m = WorldModel::new(11, NetModel::adversarial(1), || {
            (0..3)
                .map(|_| {
                    Box::new(Gossip {
                        seen: 0,
                        sum: 0,
                        ticks: 0,
                    }) as Box<dyn Program>
                })
                .collect()
        });
        m.strict_fingerprint = strict;
        m
    }

    fn kind(l: &ModelAction) -> usize {
        match l {
            ModelAction::Start { .. } => 0,
            ModelAction::Deliver { .. } => 1,
            ModelAction::FireTimer { .. } => 2,
            ModelAction::DropHead { .. } => 3,
            ModelAction::DupHead { .. } => 4,
            ModelAction::Crash { .. } => 5,
        }
    }

    #[test]
    fn shared_states_keep_cached_fingerprints_and_stay_isolated() {
        let mut kinds = [0usize; 6];
        for strict in [false, true] {
            let m = gossip_model(strict);
            for walk in 0..40u64 {
                let mut rng = fixd_runtime::DetRng::derive(walk, 0x57A7E);
                let mut s = m.initial();
                for _ in 0..30 {
                    let acts = m.enabled(&s);
                    if acts.is_empty() {
                        break;
                    }
                    let before = observe(&m, &s);
                    assert_eq!(before.0, before.1, "cached fingerprint drifted");
                    let a = &acts[rng.below(acts.len() as u64) as usize];
                    let b = &acts[rng.below(acts.len() as u64) as usize];
                    // Two successors of one state, each stepped once more.
                    let t1 = m.apply(&s, a);
                    let seen1 = observe(&m, &t1);
                    let t2 = m.apply(&s, b);
                    let seen2 = observe(&m, &t2);
                    for t in [&t1, &t2] {
                        if let Some(l) = m.enabled(t).first() {
                            let _ = m.apply(t, l);
                        }
                    }
                    assert_eq!(observe(&m, &s), before, "apply changed its source");
                    assert_eq!(observe(&m, &t1), seen1, "sibling leaked into successor");
                    assert_eq!(observe(&m, &t2), seen2, "sibling leaked into successor");
                    assert_eq!(seen1.0, seen1.1);
                    assert_eq!(seen2.0, seen2.1);
                    // A fresh successor matches the one that had siblings.
                    assert_eq!(observe(&m, &m.apply(&s, a)), seen1);
                    kinds[kind(a)] += 1;
                    s = t1;
                }
            }
        }
        assert!(
            kinds.iter().all(|&k| k > 0),
            "every action kind taken: {kinds:?}"
        );
    }

    #[test]
    fn strict_fingerprint_tells_rng_positions_apart() {
        // A timer handler that draws but changes nothing else: the
        // harness that ran it differs from a fresh one only in its RNG
        // position (timers tick no clock).
        struct Roll;
        impl Program for Roll {
            fn on_timer(&mut self, ctx: &mut Context, _t: TimerId) {
                let _ = ctx.random();
            }
            fn snapshot(&self) -> Vec<u8> {
                Vec::new()
            }
            fn restore(&mut self, _b: &[u8]) {}
            fn clone_program(&self) -> Box<dyn Program> {
                Box::new(Roll)
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let state = |draws: bool| {
            let mut h = SoloHarness::new(Pid(0), 1, 5);
            if draws {
                let _ = h.timer(&mut Roll, TimerId(1));
            }
            WorldModel::assemble_state(vec![Box::new(Roll)], vec![h], Vec::new(), Vec::new())
        };
        let (fresh, rolled) = (state(false), state(true));
        assert_eq!(rolled.harnesses[0].rng_draws(), 1);
        assert_eq!(rolled.harnesses[0].vc(), fresh.harnesses[0].vc());
        let mut m = model(NetModel::reliable());
        assert_eq!(m.fingerprint(&fresh), m.fingerprint(&rolled));
        m.strict_fingerprint = true;
        assert_ne!(m.fingerprint(&fresh), m.fingerprint(&rolled));
    }
}
