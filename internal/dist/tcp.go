package dist

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// The TCP transport realises a deployment of real OS processes: one
// coordinator (rank 0) and n workers (ranks 1..n), in a star topology.
// Workers hold a single TCP connection to the coordinator, which
// routes worker↔worker traffic. The star keeps connection management
// linear in the cluster size and gives the coordinator the global view
// it needs anyway for termination detection and result aggregation.
//
// Frames are the v2 binary format of frame.go. Three amortisations
// distinguish it from the v1 gob protocol:
//
//   - steal replies carry up to StealBatch tasks, so one round trip
//     moves a batch instead of a single task;
//   - live-task deltas are coalesced per locality and flushed at most
//     once per FlushQuantum (or piggybacked on whatever frame leaves
//     first), instead of one kDelta frame per spawn;
//   - every outgoing frame piggybacks the sender's best known bound,
//     so incumbent knowledge rides along with ordinary traffic.

const (
	// dial keeps retrying (the coordinator may not be listening yet).
	dialTimeout = 30 * time.Second
	// wireVersion is checked at registration: v1 (gob), v2 (binary
	// frames), v3 (per-task priorities + priority summaries), v4
	// (hand-over ids, completion acks, death notification, heartbeats),
	// v5 (mesh topology: peer address exchange, direct peer frames,
	// bound gossip, termination-wave tokens) and v6 (on-demand stack
	// splitting: kSplit requests served by splitting a running worker's
	// live generator stack), v7 (coordinator failover: hub state
	// replication to a standby, epoch-fenced rejoin after a takeover)
	// and v8 (link-fault tolerance: a sequence + CRC32C frame trailer
	// and resumable sessions, see session.go) — peers must not silently
	// garble each other.
	wireVersion = 8
)

// stealTimeout bounds a steal request whose reply never arrives; a
// reply landing after it is adopted via Handler.OnTask. A variable so
// tests can exercise the late-reply path without the full wait.
var stealTimeout = 10 * time.Second

// WireOptions tunes the v2 framing layer.
type WireOptions struct {
	// StealBatch is the maximum number of tasks requested per steal
	// (the victim may serve fewer — the engine's steal-half policy
	// protects its own backlog). The thief keeps one task for the
	// requesting worker and re-homes the extras via Handler.OnTask.
	// Default DefaultStealBatch; 1 disables batching.
	StealBatch int
	// FlushQuantum is the pool quantum of delta coalescing: a
	// locality's accumulated live-task delta is flushed at most this
	// often when no other outgoing frame carries it first. Larger
	// quanta mean fewer frames but slower termination detection.
	// Default DefaultFlushQuantum.
	FlushQuantum time.Duration
	// RegTimeout bounds the coordinator's registration window: Wait
	// fails, reporting the missing ranks, if the expected workers have
	// not all registered within it. Default DefaultRegTimeout.
	RegTimeout time.Duration
	// Heartbeat is the liveness cadence: a worker that has sent
	// nothing for a Heartbeat pings the coordinator, and the
	// coordinator checks every connection's last-received stamp at the
	// same cadence. Default DefaultHeartbeat.
	Heartbeat time.Duration
	// LivenessTimeout is how long the coordinator tolerates silence on
	// a worker connection before declaring the worker dead (a SIGKILL
	// is usually noticed much sooner, through the broken connection;
	// the timeout catches wedged processes and silent network drops).
	// It must cover the worker's slowest gap between registration and
	// its first frame — typically instance loading. Default
	// DefaultLivenessTimeout.
	LivenessTimeout time.Duration
	// Topology selects how worker↔worker traffic flows. TopologyStar
	// (the default) routes everything through the coordinator and
	// detects termination by the hub's global live-task count.
	// TopologyMesh has workers dial each other directly for steal,
	// reply, and ack traffic, spreads bounds epidemic-style, and
	// replaces the hub count with a Safra-style termination wave; the
	// coordinator shrinks to registration, incumbent retention, death
	// detection, and aggregation. Both sides of a deployment must agree
	// (the topology is folded into the spec check at registration).
	Topology string
	// Standby arms coordinator failover: the hub replicates its
	// residual state (peer addresses, incumbent, hand-over mirror,
	// gather progress) to the lowest live worker rank, every worker
	// pre-binds a promotion listener whose address is exchanged at
	// registration, and on rank 0's death the replicated rank promotes
	// itself while the rest re-dial it. Costs one replication frame
	// stream hub→standby; off by default. Both sides of a deployment
	// must agree (folded into the spec check, like Topology).
	Standby bool
	// LinkGrace arms the v8 resumable-session layer: on an I/O error
	// (or frame corruption) both sides of a connection keep the logical
	// session alive for this long, the dialing side reconnects, and a
	// kResume handshake retransmits exactly the frames the other side
	// missed — no death notice, no ledger replay, no failover. The
	// liveness watchdog becomes two-phase: heartbeat silence past
	// LivenessTimeout first *suspects* a rank (steals bypass it), and
	// mourns only after LivenessTimeout+LinkGrace. Zero disables
	// sessions entirely (crash-stop, the pre-v8 behaviour). Both sides
	// of a deployment must agree (folded into the spec check).
	LinkGrace time.Duration
	// Fault, when non-nil, injects deterministic link faults (latency,
	// loss, duplication, corruption, reordering, partitions) around
	// every frame this endpoint sends. In-process test deployments
	// share one plan across all endpoints; see FaultPlan.
	Fault *FaultPlan
}

// Topology values for WireOptions.Topology (and the engine-level
// configuration that feeds it).
const (
	TopologyStar = "star"
	TopologyMesh = "mesh"
)

// Defaults for WireOptions.
const (
	DefaultStealBatch      = 4
	DefaultFlushQuantum    = time.Millisecond
	DefaultRegTimeout      = 120 * time.Second
	DefaultHeartbeat       = time.Second
	DefaultLivenessTimeout = 30 * time.Second
)

func (o WireOptions) withDefaults() WireOptions {
	if o.StealBatch <= 0 {
		o.StealBatch = DefaultStealBatch
	}
	if o.FlushQuantum <= 0 {
		o.FlushQuantum = DefaultFlushQuantum
	}
	if o.RegTimeout <= 0 {
		o.RegTimeout = DefaultRegTimeout
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = DefaultHeartbeat
	}
	if o.LivenessTimeout <= 0 {
		o.LivenessTimeout = DefaultLivenessTimeout
	}
	return o
}

type kind uint8

const (
	kHello     kind = iota // worker→hub: registration (Want = wireVersion, Blob = spec)
	kWelcome               // hub→worker: To = rank, Want = size
	kReject                // hub→worker: registration refused (Blob = reason)
	kSteal                 // From = thief, To = victim, Want = max tasks
	kStealR                // From = victim, To = thief, Tasks = batch
	kBound                 // From, Obj
	kCancel                // From
	kDelta                 // carrier for a coalesced header delta
	kTerminate             // global live-task count reached zero
	kGather                // From, Blob
	kAck                   // From = thief, To = origin, Seq = hand-over id
	kDeath                 // hub→workers: Want = dead rank
	kPing                  // liveness heartbeat; header fields only
	kPeerAddr              // mesh worker→hub at registration: Blob = advertised peer listener address
	kPeers                 // hub→worker: Blob = rank-indexed peer address table
	kPeerHello             // first frame on a direct peer conn: From = dialer rank, Want = wire version
	kGossip                // epidemic bound push: From = origin, Obj = gossiped bound
	kToken                 // termination-wave token: Seq = round, Obj = accumulated count, Want = colour bits
	kSplit                 // steal with split semantics: From = thief, To = victim, Want = max tasks; reply is a kStealR
	kHubSnap               // hub→standby: Blob = full residual-state snapshot (encodeHubSnapshot)
	kHubDelta              // hub→standby: Want = subtype (hubDelta*), payload in Tasks/Acks/Blob
	kRejoin                // worker→promoted hub: From = rank, Want = expected epoch, Obj = cumulative live-task contribution
	kLeave                 // mesh worker→peers at post-termination Close: the sender is exiting, not dying
	kResume                // v8 session resume handshake: Seq = session id, Obj = receive high-water mark; travels with link sequence 0
)

// wconn is one length-prefix-framed TCP connection with serialised
// writes. The send path is where v2's per-frame batching happens: the
// owning endpoint's coalesced live-task delta is drained into, and its
// best bound stamped onto, every frame that leaves.
type wconn struct {
	// cur is the current physical connection. A resumable session (v8)
	// swaps it on reconnect; everything else about the wconn — the
	// sequence counters, the endpoint hooks, the identity the rest of
	// the deployment holds — survives the swap.
	cur  atomic.Pointer[connIO]
	wmu  sync.Mutex
	wbuf []byte
	// wbatch holds the per-frame wire images of an in-progress sendMany
	// and wvec the vectored-write view over them; both reuse capacity
	// across batches (under wmu).
	wbatch [][]byte
	wvec   net.Buffers
	// rbuf is the reader goroutine's reusable frame image. recv hands
	// it off (and re-allocates lazily) whenever a frame's parsed Blob
	// or Tasks alias it; header-only traffic — the steady state —
	// recycles it read after read.
	rbuf []byte
	// sendSeq (under wmu) and recvSeq are the v8 link-sequence
	// counters: every non-resume frame is stamped with the next send
	// sequence, and the receiver accepts exactly last+1 — a duplicate
	// (retransmit overlap) is skipped, a gap fails the link.
	sendSeq uint64
	recvSeq atomic.Uint64
	// sess, when non-nil, makes the connection resumable (LinkGrace>0).
	sess *session
	// suspect marks heartbeat silence past LivenessTimeout inside the
	// grace window: the rank is quarantined (steals bypass it) but not
	// yet mourned. Cleared when traffic moves again.
	suspect atomic.Bool
	// fault injection (nil outside fault-injected deployments). fFrom
	// and fTo name this connection's directed link in the plan.
	plan       *FaultPlan
	fFrom, fTo int
	held       []byte // reorder hold-back slot (under wmu)
	dead       atomic.Bool
	// mourned latches the one-time death processing for the peer
	// behind this connection (hub side).
	mourned atomic.Bool
	// left records an in-band kLeave: the peer announced a normal
	// post-termination exit, so the connection breaking right after is
	// a shutdown, not a death. Only consulted where death detection is
	// decentralised (the mesh after a coordinator failover) — everywhere
	// else the hub's done-gate already classifies the disconnect.
	left atomic.Bool
	// nSent/nRecvd count frames in each direction: the heartbeat
	// layer's raw material. Counters, not timestamps, keep the per-
	// frame cost to one relaxed increment — the watchdogs (pingLoop,
	// livenessLoop) sample them on their own ticks and supply the
	// clock themselves.
	nSent  atomic.Uint64
	nRecvd atomic.Uint64

	// endpoint hooks; any may be nil.
	pending *atomic.Int64 // coalesced live-task delta, drained per send
	// cum accumulates every delta this endpoint has put on a wire
	// (standby deployments only). cum + pending is the rank's exact
	// cumulative live-task contribution at any instant — the number a
	// kRejoin reports so a promoted hub can rebuild the global count.
	cum *atomic.Int64
	pb  *atomic.Int64 // best known bound, stamped per send
	// ps reports the owning endpoint's best stealable priority for the
	// v3 summary piggyback (psNothing = don't stamp). Only frames the
	// endpoint originates (From == psFrom) are stamped: forwarded
	// frames keep their origin's summary, which is what the receiver
	// attributes it to.
	ps     func() int64
	psFrom int
	ctr    *wireCounters

	// carried is the best bound this connection has demonstrably
	// conveyed in either direction — stamped as a pb piggyback or an
	// explicit kGossip/kBound, sent or received. The mesh's epidemic
	// push consults it to suppress gossip that would tell the peer
	// nothing new: every ordinary frame already spreads bounds for
	// free, so explicit gossip frames are spent only on actual news.
	carried atomic.Int64
}

// psNothing tells send to skip the summary stamp (no handler yet).
const psNothing = math.MinInt64

func newWconn(c net.Conn, ctr *wireCounters) *wconn {
	// The encode scratch starts at a size covering every header-only
	// frame, so the steady-state send path never grows it.
	cn := &wconn{ctr: ctr, wbuf: make([]byte, 0, 256)}
	cn.cur.Store(newConnIO(c))
	cn.carried.Store(math.MinInt64)
	return cn
}

// attachFault points the connection at a fault plan, naming its
// directed link. No-op for a nil plan.
func (cn *wconn) attachFault(p *FaultPlan, from, to int) {
	cn.plan, cn.fFrom, cn.fTo = p, from, to
}

// noteCarried records bound knowledge that crossed this connection.
func (cn *wconn) noteCarried(f *frame) {
	if f.HasPB {
		raiseMax(&cn.carried, f.PB)
	}
	if f.Kind == kGossip || f.Kind == kBound {
		raiseMax(&cn.carried, f.Obj)
	}
}

// hasNews reports whether obj would be news to the peer behind this
// connection, as far as the traffic so far can prove.
func (cn *wconn) hasNews(obj int64) bool { return obj > cn.carried.Load() }

// stampLocked drains the endpoint's coalesced live-task delta into f
// and stamps the piggybacked bound and priority summary. It returns
// the drained delta (0 when f already carried one, or none was
// pending), so a failed crash-stop write can restore the accumulator.
// Called under wmu: flushes reach the wire in issue order, so a steal
// reply always carries every delta issued before its tasks left the
// pool (the termination-safety invariant).
func (cn *wconn) stampLocked(f *frame) int64 {
	var drained int64
	if cn.pending != nil && f.Delta == 0 {
		f.Delta = cn.pending.Swap(0)
		drained = f.Delta
	}
	// kBound frames carry their news in Obj; stamping the same value
	// as a piggyback would make the receiver's header merge mark the
	// broadcast itself stale and suppress its relay.
	if cn.pb != nil && !f.HasPB && f.Kind != kBound {
		if b := cn.pb.Load(); b != math.MinInt64 {
			f.PB, f.HasPB = b, true
		}
	}
	if cn.ps != nil && !f.HasPS && f.From == cn.psFrom {
		if p := cn.ps(); p != psNothing {
			f.PS, f.HasPS = p, true
		}
	}
	return drained
}

func (cn *wconn) send(f *frame) error {
	if cn.dead.Load() {
		return errors.New("dist: connection closed")
	}
	if s := cn.sess; s != nil && f.Kind == kPing && s.isSuspended() {
		// Heartbeats carry no payload of their own: dropping them while
		// suspended keeps the retransmit log for real traffic (the
		// pending delta rides the next logged frame instead).
		return nil
	}
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	drained := cn.stampLocked(f) != 0
	var seq uint32
	if f.Kind != kResume {
		cn.sendSeq++
		seq = uint32(cn.sendSeq)
	}
	buf := encodeFrame(cn.wbuf, f, seq)
	cn.wbuf = buf
	if s := cn.sess; s != nil && f.Kind != kResume {
		// The session owns delivery from here: the frame is logged
		// (clean, before any fault-plan mutation) and will reach the
		// peer over this connection or a resumed successor — or be
		// absorbed by the death path when the session breaks. The delta
		// it carries is therefore counted as put-on-a-wire now, and
		// never re-added: cum + pending stays the rank's exact
		// cumulative contribution either way.
		s.appendLog(cn.sendSeq, buf)
		if cn.cum != nil && f.Delta != 0 {
			cn.cum.Add(f.Delta)
		}
		cn.nSent.Add(1)
		cn.noteCarried(f)
		if cn.ctr != nil {
			cn.ctr.framesSent.Add(1)
			cn.ctr.bytesSent.Add(int64(len(buf)))
		}
		if s.isSuspended() {
			return nil // queued; the resume replays it
		}
		if err := cn.writeFault(buf); err != nil {
			// Physical failure with a live session: suspend, and let
			// the reader drive (dialing side) or await (accepting
			// side) the resume.
			s.suspend()
		}
		return nil
	}
	if err := cn.writeFault(buf); err != nil {
		if drained {
			// Put the drained delta back: a failover recomputes the
			// rank's contribution from cum + pending, so a delta that
			// died with the connection must stay accounted.
			cn.pending.Add(f.Delta)
		}
		cn.dead.Store(true)
		return err
	}
	if cn.cum != nil && f.Delta != 0 {
		cn.cum.Add(f.Delta)
	}
	cn.nSent.Add(1)
	cn.noteCarried(f)
	if cn.ctr != nil {
		cn.ctr.framesSent.Add(1)
		cn.ctr.bytesSent.Add(int64(len(buf)))
	}
	return nil
}

// sendMany transmits a batch of frames with one vectored write
// (writev) instead of one syscall per frame — the flush-quantum path
// uses it to put a tick's coalesced acks and delta on the wire in a
// single flush. Each frame is still individually stamped, sequenced,
// CRC'd, and session-logged, so resume and accounting semantics are
// exactly those of consecutive send calls; only the number of
// physical writes changes. Fault-injected links fall back to
// per-frame writes (a plan's drop/corrupt/reorder actions are defined
// per frame).
func (cn *wconn) sendMany(fs []*frame) error {
	switch len(fs) {
	case 0:
		return nil
	case 1:
		return cn.send(fs[0])
	}
	if cn.dead.Load() {
		return errors.New("dist: connection closed")
	}
	if cn.plan != nil { // attachFault precedes traffic; safe unlocked
		var err error
		for _, f := range fs {
			if e := cn.send(f); e != nil && err == nil {
				err = e
			}
		}
		return err
	}
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	if cap(cn.wbatch) < len(fs) {
		nb := make([][]byte, len(fs))
		copy(nb, cn.wbatch[:cap(cn.wbatch)])
		cn.wbatch = nb
	}
	cn.wbatch = cn.wbatch[:len(fs)]
	s := cn.sess
	var drained int64
	for i, f := range fs {
		if d := cn.stampLocked(f); d != 0 {
			drained = d
		}
		var seq uint32
		if f.Kind != kResume {
			cn.sendSeq++
			seq = uint32(cn.sendSeq)
		}
		cn.wbatch[i] = encodeFrame(cn.wbatch[i], f, seq)
		if s != nil && f.Kind != kResume {
			// Logged frames are owed to the peer from here (see send):
			// their deltas count as put-on-a-wire immediately.
			s.appendLog(cn.sendSeq, cn.wbatch[i])
			if cn.cum != nil && f.Delta != 0 {
				cn.cum.Add(f.Delta)
			}
			cn.nSent.Add(1)
			cn.noteCarried(f)
			if cn.ctr != nil {
				cn.ctr.framesSent.Add(1)
				cn.ctr.bytesSent.Add(int64(len(cn.wbatch[i])))
			}
		}
	}
	if s != nil {
		if s.isSuspended() {
			return nil // queued; the resume replays the batch
		}
		cn.wvec = append(cn.wvec[:0], cn.wbatch...)
		if _, err := cn.wvec.WriteTo(cn.cur.Load().c); err != nil {
			s.suspend()
		}
		return nil
	}
	cn.wvec = append(cn.wvec[:0], cn.wbatch...)
	if _, err := cn.wvec.WriteTo(cn.cur.Load().c); err != nil {
		if drained != 0 {
			// Keep the drained delta accounted; see send.
			cn.pending.Add(drained)
		}
		cn.dead.Store(true)
		return err
	}
	for i, f := range fs {
		if cn.cum != nil && f.Delta != 0 {
			cn.cum.Add(f.Delta)
		}
		cn.nSent.Add(1)
		cn.noteCarried(f)
		if cn.ctr != nil {
			cn.ctr.framesSent.Add(1)
			cn.ctr.bytesSent.Add(int64(len(cn.wbatch[i])))
		}
	}
	return nil
}

// writeFault realises the link's fault plan around one physical frame
// write. The clean bytes are already in the retransmit log, so with a
// session attached a mutation here only ever costs a resume round,
// never correctness. Called under wmu.
func (cn *wconn) writeFault(buf []byte) error {
	nio := cn.cur.Load()
	p := cn.plan
	if p == nil {
		_, err := nio.c.Write(buf)
		return err
	}
	act, severed := p.act(cn.fFrom, cn.fTo)
	if severed {
		// A partition: kill the physical connection so the peer's
		// reader notices too, and report a write failure — the session
		// (or the death path) takes it from here.
		nio.c.Close()
		return errLinkSevered
	}
	if act.delay > 0 {
		time.Sleep(act.delay)
	}
	if act.drop {
		// Swallowed: the receiver sees a sequence gap on the next
		// frame and fails the link into the resume path.
		return nil
	}
	out := buf
	if act.corrupt {
		out = append([]byte(nil), buf...)
		out[4+(len(out)-4)/2] ^= 0x40 // flip a bit mid-body; the CRC catches it
	}
	if act.reorder && cn.sess != nil && cn.held == nil {
		cn.held = append([]byte(nil), out...)
		return nil
	}
	if _, err := nio.c.Write(out); err != nil {
		return err
	}
	if held := cn.held; held != nil {
		cn.held = nil
		if _, err := nio.c.Write(held); err != nil {
			return err
		}
	}
	if act.dup {
		_, err := nio.c.Write(out)
		return err
	}
	return nil
}

func (cn *wconn) recv(f *frame) error {
	for {
		nio := cn.cur.Load()
		seq, n, body, err := readRawFrameInto(nio.br, f, cn.rbuf)
		if err == nil && len(f.Blob) == 0 && len(f.Tasks) == 0 {
			// Header-only frame: nothing aliases the image, so it backs
			// the next read. Frames that carry an aliasing payload keep
			// their image (the handler may retain Blob or task payloads
			// indefinitely) and the next read allocates afresh.
			cn.rbuf = body
		} else {
			cn.rbuf = nil
		}
		if err != nil {
			// Close the physical connection before deciding anything:
			// on a CRC failure or sequence gap the stream is still
			// open, and the peer only learns the link failed when its
			// writes start failing.
			nio.c.Close()
			if cn.await(nio) {
				continue
			}
			cn.dead.Store(true)
			return err
		}
		if seq != 0 {
			next := cn.recvSeq.Load() + 1
			if seq != uint32(next) {
				if int32(seq-uint32(next)) < 0 {
					// A retransmitted duplicate (resume overlap, or an
					// injected dup): already delivered, skip silently.
					continue
				}
				// A gap: frames were lost in flight (an injected drop
				// or reorder, or a half-written stream). Fail the
				// link; the resume path retransmits in order.
				nio.c.Close()
				if cn.await(nio) {
					continue
				}
				cn.dead.Store(true)
				return fmt.Errorf("dist: link sequence gap (got %d, want %d)", seq, uint32(next))
			}
			cn.recvSeq.Store(next)
		}
		cn.nRecvd.Add(1)
		cn.noteCarried(f)
		if cn.ctr != nil {
			cn.ctr.framesRecv.Add(1)
			cn.ctr.bytesRecv.Add(int64(n))
		}
		return nil
	}
}

func (cn *wconn) close() {
	cn.dead.Store(true)
	if cn.sess != nil {
		cn.sess.breakSess()
	}
	cn.cur.Load().c.Close()
}

// reachable reports whether the peer behind this connection can
// receive traffic promptly: not dead, and not suspended inside a
// resume window (a suspended session swallows writes into the log,
// which would turn a steal request into a silent timeout).
func (cn *wconn) reachable() bool {
	if cn.dead.Load() {
		return false
	}
	if cn.sess != nil && cn.sess.isSuspended() {
		return false
	}
	return true
}

// suspectedPeer reports the two-phase liveness state: heartbeat
// silence past LivenessTimeout, or a suspended session.
func (cn *wconn) suspectedPeer() bool {
	if cn.suspect.Load() {
		return true
	}
	return cn.sess != nil && cn.sess.isSuspended()
}

// prioUnknown marks a peerPrio slot nothing has been heard from.
const prioUnknown = -2

// newPeerPrios builds an all-unknown summary table of the given size.
func newPeerPrios(n int) []atomic.Int64 {
	ps := make([]atomic.Int64, n)
	for i := range ps {
		ps[i].Store(prioUnknown)
	}
	return ps
}

// selfPrioFn adapts an endpoint's (possibly not yet attached) handler
// to the wconn summary hook: psNothing before Start or for handlers
// without StealRanker, PrioNone for an empty pool, the best priority
// otherwise.
func selfPrioFn(h *atomic.Value) func() int64 {
	return func() int64 {
		sr, ok := h.Load().(StealRanker)
		if !ok {
			return psNothing
		}
		p, has := sr.BestStealPrio()
		if !has {
			return PrioNone
		}
		if p < 0 {
			p = 0
		}
		return int64(p)
	}
}

// notePeerPrio records a frame's summary against its origin rank.
func notePeerPrio(ps []atomic.Int64, from int, prio int64) {
	if from >= 0 && from < len(ps) {
		ps[from].Store(prio)
	}
}

// peerBestPrio reads a summary table slot into the PrioAware shape.
func peerBestPrio(ps []atomic.Int64, rank int) (int, bool) {
	if rank < 0 || rank >= len(ps) {
		return 0, false
	}
	v := ps[rank].Load()
	if v <= prioUnknown {
		return 0, false
	}
	return int(v), true
}

// stealRes is a pending steal's reply slot.
type stealRes struct {
	tasks []WireTask
}

// pendingSteals tracks in-flight steal requests by sequence number.
type pendingSteals struct {
	mu   sync.Mutex
	next uint64
	m    map[uint64]*pendingSteal
}

type pendingSteal struct {
	victim int
	ch     chan stealRes
}

func (p *pendingSteals) register(victim int) (uint64, chan stealRes) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.m == nil {
		p.m = make(map[uint64]*pendingSteal)
	}
	p.next++
	ch := make(chan stealRes, 1)
	p.m[p.next] = &pendingSteal{victim: victim, ch: ch}
	return p.next, ch
}

// resolve delivers a steal reply to its waiter, reporting false when
// the request is no longer pending (it timed out): the caller then
// owns the reply and must not drop carried tasks.
func (p *pendingSteals) resolve(seq uint64, res stealRes) bool {
	p.mu.Lock()
	ps := p.m[seq]
	delete(p.m, seq)
	p.mu.Unlock()
	if ps == nil {
		return false
	}
	ps.ch <- res
	return true
}

func (p *pendingSteals) drop(seq uint64) {
	p.mu.Lock()
	delete(p.m, seq)
	p.mu.Unlock()
}

// failVictim resolves every pending steal aimed at a dead victim.
func (p *pendingSteals) failVictim(victim int) {
	p.mu.Lock()
	var chs []chan stealRes
	for seq, ps := range p.m {
		if ps.victim == victim {
			chs = append(chs, ps.ch)
			delete(p.m, seq)
		}
	}
	p.mu.Unlock()
	for _, ch := range chs {
		ch <- stealRes{}
	}
}

// failAll resolves every pending steal (the link itself died).
func (p *pendingSteals) failAll() {
	p.mu.Lock()
	var chs []chan stealRes
	for seq, ps := range p.m {
		chs = append(chs, ps.ch)
		delete(p.m, seq)
	}
	p.mu.Unlock()
	for _, ch := range chs {
		ch <- stealRes{}
	}
}

// Listener is the coordinator's registration endpoint. NewListener
// binds immediately (so Addr can be advertised); Wait blocks until the
// expected number of workers has registered, then returns the
// coordinator's Transport. Search therefore cannot start before every
// locality is present.
type Listener struct {
	ln   net.Listener
	spec string
	opts WireOptions
}

// NewListener binds the coordinator's address with default
// WireOptions. spec is an arbitrary deployment description
// (application, instance, parameters); workers must present an
// identical spec, which catches the classic distributed-search
// operator error of launching localities on different problems.
func NewListener(addr, spec string) (*Listener, error) {
	return NewListenerOpts(addr, spec, WireOptions{})
}

// NewListenerOpts is NewListener with explicit framing options.
func NewListenerOpts(addr, spec string, opts WireOptions) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	return &Listener{ln: ln, spec: topoSpec(spec, opts), opts: opts}, nil
}

// topoSpec folds the topology into the deployment spec, so a star
// coordinator and a mesh worker (or vice versa) reject each other at
// registration with an explicit spec mismatch instead of wedging on
// frames the other side never sends.
func topoSpec(spec string, opts WireOptions) string {
	if opts.Topology == TopologyMesh {
		spec += " topology=mesh"
	}
	if opts.Standby {
		// A standby deployment changes the registration sequence
		// (kPeerAddr/kPeers on a star) — mixed deployments must reject
		// each other instead of wedging.
		spec += " standby=1"
	}
	if opts.LinkGrace > 0 {
		// Sessions change what a broken connection means: a graced
		// endpoint and a crash-stop one must not mix, or one side
		// mourns while the other waits.
		spec += " grace=1"
	}
	return spec
}

// Addr returns the bound address (useful with a ":0" listen address).
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Close aborts a pending Wait.
func (l *Listener) Close() error { return l.ln.Close() }

// Wait accepts registrations until `workers` workers are connected,
// then welcomes each with its rank and returns the coordinator
// transport (rank 0 of a size workers+1 deployment).
//
// Registration is failure-aware: a connection that presents a bad
// hello, a mismatched wire version, or a mismatched spec is rejected
// (the peer is told why) without aborting the deployment — the rank it
// would have taken stays open for a corrected relaunch. Only the
// registration window itself is fatal: when WireOptions.RegTimeout
// expires, Wait fails and reports exactly which ranks never arrived
// and why the last rejected candidate was turned away, instead of
// leaving the coordinator waiting forever for a worker that already
// failed.
func (l *Listener) Wait(workers int) (Transport, error) {
	if workers < 1 {
		return nil, fmt.Errorf("dist: coordinator needs at least 1 worker, got %d", workers)
	}
	if l.opts.Topology == TopologyMesh {
		return l.waitMesh(workers)
	}
	deadline := time.Now().Add(l.opts.RegTimeout)
	h := &hub{
		size:     workers + 1,
		conns:    make([]*wconn, workers+1),
		liveAt:   make([]atomic.Int64, workers+1),
		opts:     l.opts,
		started:  make(chan struct{}),
		done:     make(chan struct{}),
		doneOnce: new(sync.Once),
		deaths:   newDeathBox(workers + 1),
		blobs:    make([][]byte, workers+1),
		contrib:  make([]bool, workers+1),
		gotAll:   make(chan struct{}),
		peerPrio: newPeerPrios(workers + 1),
		ln:       l.ln,
	}
	h.pbStamp.Store(math.MinInt64)
	h.pbSeen.Store(math.MinInt64)
	if l.opts.Standby {
		h.standby = true
		h.snapSpec = l.spec
		h.peerAddrs = make([]string, workers+1)
		h.mirror = newHubMirror()
		h.repl = newHubRepl()
	}
	var lastReject error
	regFailed := func(err error) (Transport, error) {
		registered := 0
		for _, cn := range h.conns {
			if cn != nil {
				cn.close()
				registered++
			}
		}
		missing := fmt.Sprintf("ranks %d..%d", registered+1, workers)
		if registered+1 == workers {
			missing = fmt.Sprintf("rank %d", workers)
		}
		if lastReject != nil {
			return nil, fmt.Errorf("dist: registration timed out with %d/%d workers (missing %s): %v (last rejected candidate: %v)", registered, workers, missing, err, lastReject)
		}
		return nil, fmt.Errorf("dist: registration timed out with %d/%d workers (missing %s): %w", registered, workers, missing, err)
	}
	for rank := 1; rank <= workers; {
		if d, ok := l.ln.(*net.TCPListener); ok {
			d.SetDeadline(deadline)
		}
		c, err := l.ln.Accept()
		if err != nil {
			return regFailed(err)
		}
		cn := newWconn(c, &h.ctr)
		cn.pb = &h.pbStamp
		cn.ps = selfPrioFn(&h.h)
		cn.psFrom = 0
		// The registration deadline must also bound the hello read: a
		// connection that never sends a frame (port scan, stalled
		// peer) must not hang Wait past the window.
		c.SetReadDeadline(deadline)
		var hello frame
		if err := cn.recv(&hello); err != nil || hello.Kind != kHello {
			cn.close()
			lastReject = fmt.Errorf("bad registration from %v", c.RemoteAddr())
			continue
		}
		c.SetReadDeadline(time.Time{})
		if hello.Want != wireVersion {
			cn.send(&frame{Kind: kReject, Blob: []byte(fmt.Sprintf("wire protocol mismatch: coordinator speaks v%d, worker v%d", wireVersion, hello.Want))})
			cn.close()
			lastReject = fmt.Errorf("worker %v speaks wire protocol v%d, want v%d", c.RemoteAddr(), hello.Want, wireVersion)
			continue
		}
		if string(hello.Blob) != l.spec {
			cn.send(&frame{Kind: kReject, Blob: []byte(fmt.Sprintf("spec mismatch: coordinator runs %q, worker runs %q", l.spec, string(hello.Blob)))})
			cn.close()
			lastReject = fmt.Errorf("worker %v registered with mismatched spec %q (coordinator: %q)", c.RemoteAddr(), string(hello.Blob), l.spec)
			continue
		}
		if l.opts.Standby {
			// A standby worker follows its hello with the promotion
			// listener it pre-bound — the address survivors re-dial
			// after a takeover.
			c.SetReadDeadline(deadline)
			var pa frame
			if err := cn.recv(&pa); err != nil || pa.Kind != kPeerAddr || len(pa.Blob) == 0 {
				cn.send(&frame{Kind: kReject, Blob: []byte("standby registration requires a promotion listener address")})
				cn.close()
				lastReject = fmt.Errorf("worker %v sent no promotion listener address", c.RemoteAddr())
				continue
			}
			c.SetReadDeadline(time.Time{})
			h.peerAddrs[rank] = string(pa.Blob)
		}
		cn.attachFault(l.opts.Fault, 0, rank)
		h.conns[rank] = cn
		rank++
	}
	if d, ok := l.ln.(*net.TCPListener); ok {
		d.SetDeadline(time.Time{})
	}
	if l.opts.LinkGrace > 0 {
		h.sessions = newSessRegistry()
	}
	for rank := 1; rank <= workers; rank++ {
		welcome := &frame{Kind: kWelcome, To: rank, Want: h.size, Blob: []byte(l.spec)}
		if h.sessions != nil {
			// Mint the resumable session and carry its id in the
			// welcome: the worker resumes against it after any later
			// connection loss.
			cn := h.conns[rank]
			id := mintSessionID(rank)
			cn.sess = newSession(id, l.opts.LinkGrace)
			h.sessions.add(id, cn)
			welcome.Seq = id
		}
		if err := h.conns[rank].send(welcome); err != nil {
			return nil, fmt.Errorf("dist: welcoming worker %d: %w", rank, err)
		}
	}
	if l.opts.Standby {
		// Every worker gets the full promotion-address table: each one
		// must be able to find whichever rank the takeover elects. The
		// first replication flush ships the standby its base snapshot.
		table := appendPeerTable(nil, h.peerAddrs)
		for rank := 1; rank <= workers; rank++ {
			if err := h.conns[rank].send(&frame{Kind: kPeers, To: rank, Blob: table}); err != nil {
				return nil, fmt.Errorf("dist: sending promotion addresses to worker %d: %w", rank, err)
			}
		}
	}
	for rank := 1; rank <= workers; rank++ {
		go h.serve(rank)
	}
	if h.sessions != nil {
		// The registration listener's second life: accepting resume
		// handshakes for the sessions minted above.
		go acceptResumes(h.ln, h.sessions, &h.closed)
	}
	go h.livenessLoop()
	go h.ackFlushLoop()
	return h, nil
}

// hub is the coordinator transport: rank 0's endpoint plus the router
// for worker↔worker traffic and the home of the global live-task
// counter. Under failover the same struct serves a promoted worker:
// self names the rank it runs at (0 for the original coordinator),
// and done/doneOnce/deaths are shared with the worker endpoint it
// grew out of.
type hub struct {
	size    int
	self    int      // the rank this hub serves at (0 unless promoted)
	conns   []*wconn // index by rank; conns[self] is nil
	opts    WireOptions
	h       atomic.Value
	started chan struct{}
	stOnce  sync.Once

	// failover state (nil/zero unless WireOptions.Standby).
	standby   bool
	epoch     uint64     // 0 original coordinator, 1 after the takeover
	snapSpec  string     // deployment spec, carried in snapshots
	peerAddrs []string   // rank-indexed promotion-listener addresses
	mirror    *hubMirror // replicated rank-0 hand-overs
	repl      *hubRepl   // replication queue towards the standby

	// live is the global live-task count; liveAt[rank] is each rank's
	// contribution to it (the deltas it has flushed). The split is the
	// heart of death reconciliation: a dead rank's outstanding
	// contribution — the tasks it registered and can never complete —
	// is subtracted in one move, while tasks survivors registered
	// (including the ledger copies covering everything handed to the
	// dead rank) stay counted until the survivors themselves finish
	// or replay them.
	live   atomic.Int64
	liveAt []atomic.Int64
	done   chan struct{}
	// doneOnce is a pointer so a promoted hub can share the latch with
	// the worker endpoint it grew out of (both reach for the same done
	// channel).
	doneOnce *sync.Once
	deaths   *deathBox
	inc      incumbentBox

	pending pendingSteals
	ackMu   sync.Mutex
	ackBuf  []uint64     // coalesced completion acks, drained by the ack flusher
	pbStamp atomic.Int64 // best bound known; stamped on outgoing frames
	pbSeen  atomic.Int64 // best bound delivered to the handler
	// peerPrio[rank] is the rank's last advertised best stealable
	// priority: >= 0 a priority, PrioNone an empty pool, prioUnknown
	// nothing heard yet.
	peerPrio []atomic.Int64
	ctr      wireCounters

	gatherMu sync.Mutex
	blobs    [][]byte
	contrib  []bool
	have     int
	gotAll   chan struct{}
	// aborted marks a Close that ran before the gather completed: the
	// coordinator endpoint is gone mid-search (a simulated death), so a
	// blocked Gather must fail rather than wait for contributions that
	// can no longer arrive.
	aborted bool

	closed atomic.Bool
	ln     net.Listener
	// sessions indexes the resumable sessions this hub accepts resumes
	// for (nil unless LinkGrace > 0).
	sessions *sessRegistry
}

var _ Transport = (*hub)(nil)
var _ Meter = (*hub)(nil)
var _ PrioAware = (*hub)(nil)
var _ IncumbentStore = (*hub)(nil)
var _ LinkHealth = (*hub)(nil)

func (h *hub) Rank() int { return h.self }
func (h *hub) Size() int { return h.size }

// Promoted implements Promoter: true only for a hub that took over
// from a dead coordinator.
func (h *hub) Promoted() bool { return h.self != 0 }

func (h *hub) Wire() WireStats { return h.ctr.snapshot() }

// BestKnown implements IncumbentStore: the best (obj, node) pair any
// locality has published through a node-carrying bound broadcast or a
// decision cancel. It is how the optimum survives its finder's death.
func (h *hub) BestKnown() (int64, []byte, bool) { return h.inc.best() }

// livenessLoop is the heartbeat layer's detector: a worker connection
// silent past LivenessTimeout is declared dead by closing it, which
// fails its serve loop into workerDied — the same path a broken
// connection takes, so wedged-but-connected workers and SIGKILLed ones
// converge. It runs until the hub closes, NOT until termination: the
// gather phase after Done must also be able to give up on a worker
// that wedges before contributing, or the terminal collective would
// block forever (worker pings keep flowing until the worker itself
// closes).
func (h *hub) livenessLoop() { livenessWatch(h.conns, h.opts, &h.closed) }

// livenessWatch is the detector shared by the star and mesh hubs: a
// worker connection silent past LivenessTimeout is declared dead by
// closing it, which fails its serve loop into the died path.
func livenessWatch(conns []*wconn, opts WireOptions, closed *atomic.Bool) {
	t := time.NewTicker(opts.Heartbeat)
	defer t.Stop()
	// Per-rank watchdog state: the recv-counter value last seen and
	// when it last changed. The clock lives here, on the watchdog's
	// tick, so the frame hot path pays one counter increment and no
	// time.Now().
	seen := make([]uint64, len(conns))
	changed := make([]time.Time, len(conns))
	now := time.Now()
	for i := range changed {
		changed[i] = now
	}
	for range t.C {
		if closed.Load() {
			return
		}
		now := time.Now()
		for rank := 1; rank < len(conns); rank++ {
			cn := conns[rank]
			if cn == nil || cn.dead.Load() {
				continue
			}
			if n := cn.nRecvd.Load(); n != seen[rank] {
				seen[rank], changed[rank] = n, now
				cn.suspect.Store(false)
				continue
			}
			silent := now.Sub(changed[rank])
			if opts.LinkGrace > 0 && silent > opts.LivenessTimeout && silent <= opts.LivenessTimeout+opts.LinkGrace {
				// Two-phase mourning: quarantine first. The rank drops
				// out of victim orders and steal routing, but its
				// session — and everything queued on it — survives
				// until the grace window closes.
				cn.suspect.Store(true)
				continue
			}
			if silent > opts.LivenessTimeout+opts.LinkGrace {
				cn.close()
			}
		}
	}
}

// PeerBestPrio implements PrioAware from the piggybacked summaries the
// hub has seen on each worker's frames.
func (h *hub) PeerBestPrio(rank int) (int, bool) { return peerBestPrio(h.peerPrio, rank) }

func (h *hub) Start(hd Handler) {
	h.h.Store(hd)
	h.stOnce.Do(func() { close(h.started) })
}

// handler blocks until Start (or Close) and returns the attached
// handler, which is nil only when the hub was closed before Start.
func (h *hub) handler() Handler {
	<-h.started
	hd, _ := h.h.Load().(Handler)
	return hd
}

// meldBound merges a learned bound into the hub's piggyback snapshot
// and, when the local engine has not yet been told anything at least
// as strong, delivers it. The delivery gate absorbs the repetition
// piggybacking creates (every frame restates the sender's best) while
// never filtering a peer's genuine improvement.
func (h *hub) meldBound(from int, obj int64) {
	raiseMax(&h.pbStamp, obj)
	if raiseMax(&h.pbSeen, obj) {
		if hd := h.handler(); hd != nil {
			hd.OnBound(from, obj)
		}
	}
}

// serve routes one worker connection until it dies.
func (h *hub) serve(rank int) {
	cn := h.conns[rank]
	for {
		var f frame
		if err := cn.recv(&f); err != nil {
			h.workerDied(rank)
			return
		}
		// Header batching first: the coalesced delta must hit the live
		// count — attributed to its sender, so a death can reconcile
		// it — before any task in this frame is forwarded onward, and
		// the piggybacked bound is merged before serving steals so
		// replies never carry staler knowledge than their request.
		if f.Delta != 0 {
			h.addAt(f.From, f.Delta)
			f.Delta = 0
		}
		if f.HasPB {
			h.meldBound(f.From, f.PB)
			f.HasPB = false
		}
		// A priority summary is recorded here but, unlike the delta and
		// bound, NOT cleared: it describes the origin locality, so a
		// forwarded frame must deliver it unchanged to its destination.
		if f.HasPS {
			notePeerPrio(h.peerPrio, f.From, f.PS)
		}
		switch f.Kind {
		case kSteal:
			if f.To == h.self {
				var tasks []WireTask
				if hd := h.handler(); hd != nil {
					tasks = collectSteal(hd, f.From, f.Want)
				}
				h.mirrorHandOver(f.From, tasks)
				cn.send(&frame{Kind: kStealR, From: h.self, To: f.From, Seq: f.Seq, Tasks: tasks})
				break
			}
			if !h.reachableRank(f.To) || !h.forward(f.To, &f) {
				// Dead or quarantined victim: release the thief
				// empty-handed now instead of letting it ride the
				// steal timeout.
				cn.send(&frame{Kind: kStealR, From: f.To, To: f.From, Seq: f.Seq})
			}
		case kSplit:
			if f.To == h.self {
				// Served off the serve loop: the split gate may block
				// briefly waiting for a running worker's poll point, and
				// this loop must keep draining rank's other traffic.
				thief, seq, want := f.From, f.Seq, f.Want
				go func() {
					var tasks []WireTask
					if hd := h.handler(); hd != nil {
						tasks = collectSplit(hd, thief, want)
					}
					h.mirrorHandOver(thief, tasks)
					cn.send(&frame{Kind: kStealR, From: h.self, To: thief, Seq: seq, Tasks: tasks})
				}()
				break
			}
			if !h.reachableRank(f.To) || !h.forward(f.To, &f) {
				cn.send(&frame{Kind: kStealR, From: f.To, To: f.From, Seq: f.Seq})
			}
		case kStealR:
			if f.To == h.self {
				if !h.pending.resolve(f.Seq, stealRes{tasks: f.Tasks}) && len(f.Tasks) > 0 {
					// The request timed out before this reply landed;
					// the tasks are ours now — keep them as local work.
					if hd := h.handler(); hd != nil {
						for _, t := range f.Tasks {
							hd.OnTask(t)
						}
					}
				}
				break
			}
			h.forward(f.To, &f)
		case kBound:
			// Relay unconditionally: a bound stale to the hub can
			// still be news to a worker that has not heard it (the
			// fan-out of a stronger bound excludes its origin). A
			// node-carrying broadcast is additionally retained, so the
			// optimum outlives its finder — but only the hub's
			// retention wants the blob, so the relay is stripped to
			// the bound itself (workers read only Obj).
			if len(f.Blob) > 0 {
				if h.inc.keep(f.Obj, f.Blob) {
					h.noteIncumbent(f.Obj, f.Blob)
				}
				f.Blob = nil
			}
			h.meldBound(f.From, f.Obj)
			h.fanOut(&f, rank)
		case kCancel:
			if len(f.Blob) > 0 {
				if h.inc.keep(f.Obj, f.Blob) {
					h.noteIncumbent(f.Obj, f.Blob)
				}
				f.Blob = nil
			}
			if hd := h.handler(); hd != nil {
				hd.OnCancel(f.From)
			}
			h.fanOut(&f, rank)
		case kAck:
			// A coalesced batch: each id names its origin. The hub's
			// own are delivered here; the rest join the ack buffer and
			// ride the flusher's next per-origin batches — one split
			// implementation (drainAcks) for relayed and self-minted
			// acks alike. Acks to a dead origin drop silently at
			// forward time: its ledger died with it, and the subtree
			// the ack certifies was completed by the sender anyway.
			var relay []uint64
			for _, id := range f.Acks {
				if origin := TaskOrigin(id); origin == h.self {
					if hd := h.handler(); hd != nil {
						hd.OnAck(f.From, id)
					}
					if h.self == 0 && h.mirror != nil {
						h.mirror.retire(id)
						h.repl.noteRetire(id)
					}
					continue
				} else if origin == 0 {
					// Promoted hub: an ack certifying one of the dead
					// coordinator's hand-overs. Its ledger is gone; the
					// mirror entry is what must retire so the subtree is
					// never replayed.
					h.mirror.retire(id)
					continue
				}
				relay = append(relay, id)
			}
			if relay != nil {
				h.ackMu.Lock()
				h.ackBuf = append(h.ackBuf, relay...)
				h.ackMu.Unlock()
			}
		case kDelta, kPing:
			// Nothing beyond the header fields already applied; a
			// ping's whole purpose was refreshing lastRecv.
		case kGather:
			h.contribute(f.From, f.Blob)
		}
	}
}

// mirrorHandOver records the coordinator's own hand-overs in the
// failover mirror before the reply ships: should the thief die after
// a takeover, the promoted hub replays exactly these supervision
// roots. Unsupervised tasks (ID 0) have nothing to replay.
func (h *hub) mirrorHandOver(thief int, tasks []WireTask) {
	if h.mirror == nil || h.self != 0 {
		return
	}
	for _, t := range tasks {
		if t.ID == 0 {
			continue
		}
		h.mirror.add(thief, t)
		h.repl.noteMirrorAdd(thief, t)
	}
}

// noteIncumbent replicates an incumbent improvement to the standby.
func (h *hub) noteIncumbent(obj int64, node []byte) {
	if h.repl != nil && h.self == 0 {
		h.repl.noteIncumbent(obj, node)
	}
}

// reachableRank reports whether rank can receive traffic promptly
// (alive, and not suspended or suspected inside a grace window).
func (h *hub) reachableRank(rank int) bool {
	if rank <= 0 || rank >= h.size || rank == h.self {
		return false
	}
	cn := h.conns[rank]
	return cn != nil && cn.reachable() && !cn.suspect.Load()
}

// Suspected implements LinkHealth: true while rank is quarantined by
// the two-phase watchdog or mid-resume on a suspended session. Victim
// selection skips suspected ranks; steals aimed at them fail fast.
func (h *hub) Suspected(rank int) bool {
	if rank <= 0 || rank >= h.size || rank == h.self {
		return false
	}
	cn := h.conns[rank]
	return cn != nil && !cn.dead.Load() && cn.suspectedPeer()
}

// forward sends a frame to a worker; false when the worker is gone.
func (h *hub) forward(rank int, f *frame) bool {
	if rank <= 0 || rank >= h.size {
		return false
	}
	cn := h.conns[rank]
	if cn == nil || cn.dead.Load() {
		return false
	}
	return cn.send(f) == nil
}

// fanOut relays a frame to every live worker except the origin.
func (h *hub) fanOut(f *frame, except int) {
	for rank := 1; rank < h.size; rank++ {
		if rank == except {
			continue
		}
		h.forward(rank, f)
	}
}

// workerDied handles a lost connection. After normal termination it
// only records the (expected) disconnect. Before termination it is a
// real death, and the supervised-task protocol takes over instead of
// the old force-termination: pending steals aimed at the worker fail
// fast, every survivor is notified (kDeath fan-out plus the hub's own
// Deaths channel) so their ledgers replay the subtree roots the dead
// rank was holding, the gather slot is filled with nil so the terminal
// collective cannot block on a rank that will never contribute, and
// the dead rank's outstanding live-task contribution is reconciled
// away — the survivors' ledger registrations keep everything that can
// still be replayed counted, so the count reaches zero exactly when
// the surviving search (replays included) is done.
func (h *hub) workerDied(rank int) {
	if h.closed.Load() {
		// The hub itself is going away (Close tears the connections
		// down one by one): the workers are not dying, and mourning
		// them here would broadcast spurious kDeath frames to conns
		// not yet torn down — survivors of a coordinator crash must
		// see exactly one death, rank 0's, detected on their own side.
		return
	}
	cn := h.conns[rank]
	if !cn.mourned.CompareAndSwap(false, true) {
		return
	}
	cn.dead.Store(true)
	h.pending.failVictim(rank)
	select {
	case <-h.done:
		// Post-termination disconnect: the worker shut down normally
		// (it has already contributed its gather payload, or never
		// will — fill the slot either way so Gather cannot block).
		h.contribute(rank, nil)
		return
	default:
	}
	h.deaths.announce(rank)
	h.fanOut(&frame{Kind: kDeath, From: h.self, Want: rank}, rank)
	h.contribute(rank, nil)
	if h.mirror != nil {
		if h.self == 0 {
			// The engine-level ledger replays these hand-overs itself
			// (they re-export under fresh ids if re-stolen); the old
			// mirror entries are dead weight at the standby too.
			for _, t := range h.mirror.takeHolder(rank) {
				h.repl.noteRetire(t.ID)
			}
			if rank == h.repl.targetRank() {
				h.retargetRepl()
			}
		} else {
			// Promoted hub: replay the dead rank's share of the old
			// coordinator's hand-overs — the one set of roots no
			// surviving ledger supervises.
			h.replayMirror(rank)
		}
	}
	if removed := h.liveAt[rank].Swap(0); removed != 0 {
		if h.live.Add(-removed) == 0 && removed > 0 {
			h.terminate()
		}
	}
}

// retargetRepl points replication at the lowest surviving rank and
// forces it a full base snapshot.
func (h *hub) retargetRepl() {
	for r := 1; r < h.size; r++ {
		cn := h.conns[r]
		if cn != nil && !cn.dead.Load() && !cn.mourned.Load() {
			h.repl.setTarget(r)
			return
		}
	}
	h.repl.setTarget(-1) // no survivors to replicate to
}

// flushRepl drains the replication queue once per flush quantum.
func (h *hub) flushRepl() {
	if h.repl == nil || h.self != 0 {
		return
	}
	t := h.repl.targetRank()
	if t <= 0 || t >= h.size {
		return
	}
	h.repl.flushTo(h.conns[t], h.snapshotBlob)
}

// snapshotBlob captures the hub's residual state for a kHubSnap.
func (h *hub) snapshotBlob() []byte {
	s := &HubSnapshot{
		Epoch:     h.epoch,
		Spec:      h.snapSpec,
		Size:      h.size,
		PeerAddrs: h.peerAddrs,
		Alive:     make([]bool, h.size),
		Mirror:    h.mirror.entries(),
	}
	s.Alive[h.self] = true
	for r := 0; r < h.size; r++ {
		if cn := h.conns[r]; cn != nil && !cn.mourned.Load() {
			s.Alive[r] = true
		}
	}
	s.BestObj, s.BestNode, s.HasBest = h.inc.best()
	h.gatherMu.Lock()
	for r, c := range h.contrib {
		if c {
			s.Gather = append(s.Gather, GatherSlot{Rank: r, Blob: h.blobs[r]})
		}
	}
	h.gatherMu.Unlock()
	return encodeHubSnapshot(s)
}

// terminate ends the search everywhere, once.
func (h *hub) terminate() {
	h.doneOnce.Do(func() {
		close(h.done)
		h.fanOut(&frame{Kind: kTerminate}, 0)
	})
}

func (h *hub) Steal(victim int) (WireTask, bool, error) {
	return h.stealVia(kSteal, victim)
}

// SplitSteal is Steal with split semantics (kSplit): the victim falls
// back to splitting a running worker's live generator stack when its
// pool is dry. The reply is an ordinary kStealR, so correlation and
// batch re-homing are shared with plain steals.
func (h *hub) SplitSteal(victim int) (WireTask, bool, error) {
	return h.stealVia(kSplit, victim)
}

func (h *hub) stealVia(k kind, victim int) (WireTask, bool, error) {
	if victim < 0 || victim >= h.size || victim == h.self {
		return WireTask{}, false, fmt.Errorf("dist: steal from invalid rank %d", victim)
	}
	if !h.reachableRank(victim) {
		return WireTask{}, false, nil
	}
	seq, ch := h.pending.register(victim)
	if !h.forward(victim, &frame{Kind: k, From: h.self, To: victim, Seq: seq, Want: h.opts.StealBatch}) {
		h.pending.drop(seq)
		return WireTask{}, false, nil
	}
	select {
	case res := <-ch:
		if len(res.tasks) == 0 {
			return WireTask{}, false, nil
		}
		h.ctr.stealReplies.Add(1)
		h.ctr.stealTasks.Add(int64(len(res.tasks)))
		if hd := h.handler(); hd != nil {
			for _, t := range res.tasks[1:] {
				hd.OnTask(t)
			}
		}
		return res.tasks[0], true, nil
	case <-h.done:
		// Global termination: no reply can matter (and none may come —
		// a victim that finished may already have shut down without a
		// post-termination death fan-out to fail this request).
		h.pending.drop(seq)
		return WireTask{}, false, nil
	case <-time.After(stealTimeout):
		h.pending.drop(seq)
		return WireTask{}, false, nil
	}
}

// BroadcastBound retains the node locally (the hub IS rank 0's
// retention) and fans out the bound alone: workers have no use for
// the encoded node, so it never costs fan-out bandwidth.
func (h *hub) BroadcastBound(obj int64, node []byte) error {
	if h.inc.keep(obj, node) {
		h.noteIncumbent(obj, node)
	}
	raiseMax(&h.pbStamp, obj)
	h.fanOut(&frame{Kind: kBound, From: h.self, Obj: obj}, h.self)
	return nil
}

func (h *hub) Cancel(obj int64, witness []byte) error {
	if h.inc.keep(obj, witness) {
		h.noteIncumbent(obj, witness)
	}
	h.fanOut(&frame{Kind: kCancel, From: h.self, Obj: obj}, h.self)
	return nil
}

// Ack queues a hand-over completion ack towards the origin's ledger;
// the hub's ack flusher drains the buffer once per quantum, one frame
// per origin, exactly like a worker's coalescing.
func (h *hub) Ack(origin int, id uint64) error {
	if origin == 0 && h.self != 0 {
		// Promoted hub completing one of the dead coordinator's
		// hand-overs (adopted via a mirror replay): the origin ledger
		// is gone, the mirror entry is what retires.
		h.mirror.retire(id)
		return nil
	}
	if origin <= 0 || origin >= h.size || origin == h.self {
		return fmt.Errorf("dist: ack to invalid rank %d", origin)
	}
	h.ackMu.Lock()
	h.ackBuf = append(h.ackBuf, id)
	h.ackMu.Unlock()
	return nil
}

// drainAcks forwards the hub's coalesced acks, grouped per origin.
func (h *hub) drainAcks() {
	h.ackMu.Lock()
	ids := h.ackBuf
	h.ackBuf = nil
	h.ackMu.Unlock()
	if len(ids) == 0 {
		return
	}
	byOrigin := make(map[int][]uint64)
	for _, id := range ids {
		origin := TaskOrigin(id)
		if origin == 0 && h.self != 0 {
			// Inherited from the worker endpoint at promotion: an ack
			// for a dead-coordinator hand-over retires its mirror entry.
			h.mirror.retire(id)
			continue
		}
		if origin > 0 && origin < h.size && origin != h.self {
			byOrigin[origin] = append(byOrigin[origin], id)
		}
	}
	for origin, ids := range byOrigin {
		var fs []*frame
		for len(ids) > 0 {
			n := len(ids)
			if n > maxStealBatch {
				n = maxStealBatch
			}
			fs = append(fs, &frame{Kind: kAck, From: h.self, To: origin, Acks: ids[:n]})
			ids = ids[n:]
		}
		h.forwardMany(origin, fs)
	}
}

// forwardMany is forward for a batch of frames, put on the wire with
// one vectored flush.
func (h *hub) forwardMany(rank int, fs []*frame) bool {
	if rank <= 0 || rank >= h.size {
		return false
	}
	cn := h.conns[rank]
	if cn == nil || cn.dead.Load() {
		return false
	}
	return cn.sendMany(fs) == nil
}

// ackFlushLoop drains the hub's coalesced acks once per quantum. It
// must outlive termination detection (termination *requires* the final
// acks to land), so it stops only when the hub closes.
func (h *hub) ackFlushLoop() {
	t := time.NewTicker(h.opts.FlushQuantum)
	defer t.Stop()
	for range t.C {
		if h.closed.Load() {
			return
		}
		h.drainAcks()
		h.flushRepl()
	}
}

// addAt folds a delta into the global count, attributed to rank.
func (h *hub) addAt(rank int, delta int64) {
	if rank < 0 || rank >= h.size {
		rank = 0
	}
	h.liveAt[rank].Add(delta)
	if h.live.Add(delta) == 0 && delta < 0 {
		h.terminate()
	}
}

func (h *hub) AddTasks(delta int64) { h.addAt(h.self, delta) }

func (h *hub) Done() <-chan struct{} { return h.done }

func (h *hub) Deaths() <-chan int { return h.deaths.ch }

func (h *hub) contribute(rank int, blob []byte) {
	if rank < 0 || rank >= h.size {
		return
	}
	h.gatherMu.Lock()
	defer h.gatherMu.Unlock()
	if h.aborted || h.contrib[rank] {
		return
	}
	h.contrib[rank] = true
	h.blobs[rank] = blob
	h.have++
	if h.repl != nil && h.self == 0 {
		h.repl.noteGather(rank, blob)
	}
	if h.have == h.size {
		close(h.gotAll)
	}
}

func (h *hub) Gather(payload []byte) ([][]byte, error) {
	h.contribute(h.self, payload)
	<-h.gotAll
	h.gatherMu.Lock()
	defer h.gatherMu.Unlock()
	if h.aborted {
		return nil, errors.New("dist: gather aborted: coordinator endpoint closed mid-search")
	}
	return h.blobs, nil
}

func (h *hub) Close() error {
	if !h.closed.CompareAndSwap(false, true) {
		return nil
	}
	h.stOnce.Do(func() { close(h.started) }) // unblock routing goroutines

	for _, cn := range h.conns {
		if cn != nil {
			cn.close()
		}
	}
	if h.ln != nil {
		h.ln.Close()
	}
	// A Close before global termination is this endpoint's death (the
	// in-process analogue of SIGKILL — chaos harnesses close a live
	// coordinator on purpose). Release anything still parked on this
	// endpoint: the local engine waiting on Done, and a Gather that can
	// never complete because the workers now contribute to the promoted
	// standby instead.
	h.gatherMu.Lock()
	if h.have < h.size {
		h.aborted = true
		close(h.gotAll)
	}
	h.gatherMu.Unlock()
	h.doneOnce.Do(func() { close(h.done) })
	return nil
}

// Dial connects a worker to the coordinator with default WireOptions,
// retrying while the coordinator is not yet listening, and completes
// registration. The returned transport's rank is assigned by the
// coordinator.
func Dial(addr, spec string) (Transport, error) {
	return DialOpts(addr, spec, WireOptions{})
}

// DialOpts is Dial with explicit framing options. StealBatch is a
// thief-side knob (each endpoint requests its own batch size), while
// FlushQuantum paces this worker's delta flushes; deployments normally
// use the same options everywhere but are not required to.
func DialOpts(addr, spec string, opts WireOptions) (Transport, error) {
	opts = opts.withDefaults()
	spec = topoSpec(spec, opts)
	if opts.Topology == TopologyMesh {
		return dialMesh(addr, spec, opts)
	}
	c, err := dialRetry(addr)
	if err != nil {
		return nil, err
	}
	w := &worker{
		opts:      opts,
		standby:   opts.Standby,
		started:   make(chan struct{}),
		done:      make(chan struct{}),
		flushStop: make(chan struct{}),
	}
	w.pbStamp.Store(math.MinInt64)
	w.pbSeen.Store(math.MinInt64)
	cn := newWconn(c, &w.ctr)
	fail := func(err error) (Transport, error) {
		cn.close()
		if w.promoLn != nil {
			w.promoLn.Close()
		}
		return nil, err
	}
	if opts.Standby {
		// Pre-bind the promotion listener before saying hello: the
		// address every worker advertises must be accepting from the
		// instant it is exchanged — a takeover can happen any time
		// after, and re-dialing workers land in the kernel backlog
		// until the candidate's accept loop starts.
		pl, err := net.Listen("tcp", ":0")
		if err != nil {
			return fail(fmt.Errorf("dist: binding promotion listener: %w", err))
		}
		w.promoLn = pl
	}
	if err := cn.send(&frame{Kind: kHello, Want: wireVersion, Blob: []byte(spec)}); err != nil {
		return fail(fmt.Errorf("dist: registering with %s: %w", addr, err))
	}
	if opts.Standby {
		// Advertise the promotion listener under the host the
		// registration connection actually uses (the listener itself
		// is bound to the wildcard address).
		host, _, err := net.SplitHostPort(c.LocalAddr().String())
		if err != nil {
			return fail(fmt.Errorf("dist: resolving promotion address: %w", err))
		}
		_, port, err := net.SplitHostPort(w.promoLn.Addr().String())
		if err != nil {
			return fail(fmt.Errorf("dist: resolving promotion address: %w", err))
		}
		adv := net.JoinHostPort(host, port)
		if err := cn.send(&frame{Kind: kPeerAddr, Blob: []byte(adv)}); err != nil {
			return fail(fmt.Errorf("dist: advertising promotion address to %s: %w", addr, err))
		}
	}
	var welcome frame
	if err := cn.recv(&welcome); err != nil {
		return fail(fmt.Errorf("dist: registration reply from %s: %w", addr, err))
	}
	switch welcome.Kind {
	case kWelcome:
	case kReject:
		return fail(fmt.Errorf("dist: coordinator refused registration: %s", string(welcome.Blob)))
	default:
		return fail(fmt.Errorf("dist: unexpected registration reply kind %d", welcome.Kind))
	}
	w.cn.Store(cn)
	w.rank = welcome.To
	w.size = welcome.Want
	if opts.LinkGrace > 0 && welcome.Seq != 0 {
		// The hub minted a resumable session and carried its id in the
		// welcome; this side dials the resume after a connection loss.
		s := newSession(welcome.Seq, opts.LinkGrace)
		s.rank = w.rank
		s.redial = sessionRedialer(addr)
		cn.sess = s
	}
	cn.attachFault(opts.Fault, w.rank, 0)
	w.peerPrio = newPeerPrios(w.size)
	w.deaths = newDeathBox(w.size)
	if opts.Standby {
		var pf frame
		if err := cn.recv(&pf); err != nil || pf.Kind != kPeers {
			return fail(fmt.Errorf("dist: waiting for promotion address table from %s: %w", addr, err))
		}
		table, err := parsePeerTable(pf.Blob)
		if err != nil || len(table) != w.size {
			return fail(fmt.Errorf("dist: bad promotion address table from %s (%d entries, want %d)", addr, len(table), w.size))
		}
		w.peerAddrs = table
		w.store = newStandbyState()
		cn.cum = &w.cumSent
	}
	cn.pending = &w.delta
	cn.pb = &w.pbStamp
	cn.ps = selfPrioFn(&w.h)
	cn.psFrom = w.rank
	// The heartbeat starts at registration, not at Start: the gap
	// between the two is where the worker loads its problem instance,
	// and a silent connection there must not read as a death.
	go w.pingLoop()
	return w, nil
}

// worker is a non-coordinator locality's endpoint: one connection to
// the hub carrying all of its traffic. Under failover the connection
// is swappable (a takeover re-points it at the promoted hub) and, if
// this rank itself promotes, every Transport method delegates to the
// hub it becomes.
type worker struct {
	cn      atomic.Pointer[wconn]
	rank    int
	size    int
	opts    WireOptions
	h       atomic.Value
	started chan struct{}
	stOnce  sync.Once

	done     chan struct{}
	doneOnce sync.Once
	deaths   *deathBox

	// failover state (zero unless WireOptions.Standby).
	standby   bool
	epoch     atomic.Uint32       // 0 original coordinator alive, 1 after the takeover
	cumSent   atomic.Int64        // cumulative live-task delta put on a wire
	peerAddrs []string            // rank-indexed promotion-listener addresses
	promoLn   net.Listener        // this rank's pre-bound promotion listener
	store     *standbyState       // replicated hub state (filled only at the standby)
	promo     atomic.Pointer[hub] // the hub this rank became, if promoted

	pending  pendingSteals
	delta    atomic.Int64 // coalesced live-task delta, drained by sends
	ackMu    sync.Mutex
	ackBuf   []uint64     // coalesced completion acks, drained by the flusher
	pbStamp  atomic.Int64 // best bound known; stamped on outgoing frames
	pbSeen   atomic.Int64 // best bound delivered to the handler
	peerPrio []atomic.Int64
	ctr      wireCounters

	ownMu    sync.Mutex
	ownBound *frame // best kBound this rank broadcast; re-sent after a rejoin

	flushStop chan struct{}
	flushOnce sync.Once
	closed    atomic.Bool
}

var _ Transport = (*worker)(nil)
var _ Meter = (*worker)(nil)
var _ PrioAware = (*worker)(nil)
var _ IncumbentStore = (*worker)(nil)
var _ Promoter = (*worker)(nil)
var _ AckRelay = (*worker)(nil)
var _ LinkHealth = (*worker)(nil)

// AcksRelayed implements AckRelay: star acks travel through the hub,
// so a dying coordinator can eat an in-flight ack — the engine must
// replay every outstanding hand-over when rank 0 dies.
func (w *worker) AcksRelayed() bool { return true }

// conn is the current hub connection (swapped by a takeover).
func (w *worker) conn() *wconn { return w.cn.Load() }

// Promoted implements Promoter: true once this rank took over as
// coordinator — the signal for result extraction to consult this
// locality where it would have consulted rank 0.
func (w *worker) Promoted() bool { return w.promo.Load() != nil }

// BestKnown implements IncumbentStore vacuously: retention lives at
// the hub, and only rank 0's answer is ever consulted — unless this
// rank became the hub, whose inherited retention is then the answer.
func (w *worker) BestKnown() (int64, []byte, bool) {
	if h := w.promo.Load(); h != nil {
		return h.BestKnown()
	}
	return 0, nil, false
}

// pingLoop keeps the connection audibly alive: whenever nothing has
// been sent for a heartbeat, an empty kPing goes out (carrying, as
// every frame does, any coalesced delta and bound snapshot). The hub's
// livenessLoop reads silence beyond LivenessTimeout as death.
func (w *worker) pingLoop() {
	t := time.NewTicker(w.opts.Heartbeat)
	defer t.Stop()
	var lastSent uint64
	for {
		select {
		case <-w.flushStop:
			return
		case <-t.C:
			cn := w.conn()
			if cn.dead.Load() {
				// A takeover may swap in a live connection; keep
				// ticking until the flusher is stopped for good.
				continue
			}
			// Anything sent since the last tick is heartbeat enough.
			if n := cn.nSent.Load(); n != lastSent {
				lastSent = n
				continue
			}
			cn.send(&frame{Kind: kPing, From: w.rank})
			lastSent = cn.nSent.Load()
		}
	}
}

func (w *worker) Rank() int { return w.rank }
func (w *worker) Size() int { return w.size }

func (w *worker) Wire() WireStats {
	s := w.ctr.snapshot()
	if h := w.promo.Load(); h != nil {
		// The hub this rank became counts its own traffic; the report
		// spans both lives.
		hs := h.ctr.snapshot()
		s.FramesSent += hs.FramesSent
		s.FramesRecv += hs.FramesRecv
		s.BytesSent += hs.BytesSent
		s.BytesRecv += hs.BytesRecv
		s.StealTasks += hs.StealTasks
		s.StealReplies += hs.StealReplies
		s.Resumes += hs.Resumes
	}
	return s
}

// PeerBestPrio implements PrioAware. A worker hears summaries on the
// frames routed to it — the hub's own traffic, and forwarded frames
// (steal replies, bound relays) stamped by their origin — so its view
// of a peer refreshes whenever they exchange work. After a promotion
// the hub's table is the live one.
func (w *worker) PeerBestPrio(rank int) (int, bool) {
	if h := w.promo.Load(); h != nil {
		if p, ok := peerBestPrio(h.peerPrio, rank); ok {
			return p, ok
		}
	}
	return peerBestPrio(w.peerPrio, rank)
}

// Suspected implements LinkHealth: with only the hub link to go on, a
// suspended session makes every peer unreachable (steals route through
// the hub), so all non-self ranks are suspected while it resumes.
func (w *worker) Suspected(rank int) bool {
	if h := w.promo.Load(); h != nil {
		return h.Suspected(rank)
	}
	if rank == w.rank || rank < 0 || rank >= w.size {
		return false
	}
	cn := w.conn()
	return cn.sess != nil && cn.sess.isSuspended()
}

func (w *worker) Start(h Handler) {
	w.h.Store(h)
	w.stOnce.Do(func() { close(w.started) })
	go w.readLoop(w.conn())
	go w.flushLoop()
}

func (w *worker) handler() Handler {
	hd, _ := w.h.Load().(Handler)
	return hd
}

// meldBound merges a learned bound (broadcast or piggyback) and
// delivers it unless something at least as strong has already been
// delivered. Own broadcasts raise only pbStamp, so a peer's weaker
// but never-heard bound still reaches the handler.
func (w *worker) meldBound(from int, obj int64) {
	raiseMax(&w.pbStamp, obj)
	if raiseMax(&w.pbSeen, obj) {
		w.handler().OnBound(from, obj)
	}
}

// stopFlush ends the delta flusher (idempotent).
func (w *worker) stopFlush() {
	w.flushOnce.Do(func() { close(w.flushStop) })
}

// flushLoop is the pool-quantum tick: whatever completion acks and
// live-task delta have accumulated since the last outgoing frame are
// flushed — as one vectored write covering the whole tick, not one
// syscall per frame. This is what turns one-frame-per-spawn into one
// flush per quantum; sends of any other kind drain the accumulator
// for free.
func (w *worker) flushLoop() {
	t := time.NewTicker(w.opts.FlushQuantum)
	defer t.Stop()
	for {
		select {
		case <-w.flushStop:
			return
		case <-t.C:
			w.flushTick()
		}
	}
}

// flushTick drains one quantum's coalesced acks and delta onto the
// wire in a single vectored flush. The delta uses Swap, not
// Load-then-send: a concurrent outgoing frame may drain the
// accumulator between the two, which would put an empty kDelta frame
// on the wire.
func (w *worker) flushTick() {
	w.ackMu.Lock()
	ids := w.ackBuf
	w.ackBuf = nil
	w.ackMu.Unlock()
	var fs []*frame
	for rest := ids; len(rest) > 0; {
		n := len(rest)
		if n > maxStealBatch {
			n = maxStealBatch
		}
		fs = append(fs, &frame{Kind: kAck, From: w.rank, Acks: rest[:n]})
		rest = rest[n:]
	}
	d := w.delta.Swap(0)
	if d != 0 {
		fs = append(fs, &frame{Kind: kDelta, From: w.rank, Delta: d})
	}
	if len(fs) == 0 {
		return
	}
	if w.conn().sendMany(fs) != nil {
		// The connection is dead (the hub declares us so); keep
		// everything for Close's best-effort flush — and, under
		// failover, for the promoted hub this buffer hands over to.
		if len(ids) > 0 {
			w.ackMu.Lock()
			w.ackBuf = append(w.ackBuf, ids...)
			w.ackMu.Unlock()
		}
		if d != 0 {
			w.delta.Add(d)
		}
	}
}

func (w *worker) readLoop(cn *wconn) {
	for {
		var f frame
		if err := cn.recv(&f); err != nil {
			// The hub is gone. Under standby the takeover protocol gets
			// first refusal (promote or rejoin); when it declines — not
			// a standby deployment, a second coordinator death, no
			// survivors — no more work or termination signal can ever
			// arrive, so release anyone waiting.
			if w.failover() {
				return
			}
			w.pending.failAll()
			w.stopFlush()
			w.doneOnce.Do(func() { close(w.done) })
			return
		}
		if f.HasPB {
			w.meldBound(f.From, f.PB)
		}
		if f.HasPS && f.From != w.rank {
			notePeerPrio(w.peerPrio, f.From, f.PS)
		}
		switch f.Kind {
		case kSteal:
			tasks := collectSteal(w.handler(), f.From, f.Want)
			cn.send(&frame{Kind: kStealR, From: w.rank, To: f.From, Seq: f.Seq, Tasks: tasks})
		case kSplit:
			// Served off the read loop: the split gate may block briefly
			// waiting for a running worker's next poll point.
			thief, seq, want := f.From, f.Seq, f.Want
			go func() {
				tasks := collectSplit(w.handler(), thief, want)
				cn.send(&frame{Kind: kStealR, From: w.rank, To: thief, Seq: seq, Tasks: tasks})
			}()
		case kStealR:
			if !w.pending.resolve(f.Seq, stealRes{tasks: f.Tasks}) && len(f.Tasks) > 0 {
				// Late reply to a timed-out steal: the tasks left their
				// victim and must not be lost — enqueue them locally.
				for _, t := range f.Tasks {
					w.handler().OnTask(t)
				}
			}
		case kBound:
			w.meldBound(f.From, f.Obj)
		case kCancel:
			w.handler().OnCancel(f.From)
		case kAck:
			for _, id := range f.Acks {
				w.handler().OnAck(f.From, id)
			}
		case kDeath:
			// A peer died: fail steals aimed at it fast (a reply can
			// never come) and let the engine replay its ledger.
			w.pending.failVictim(f.Want)
			w.deaths.announce(f.Want)
		case kTerminate:
			w.doneOnce.Do(func() { close(w.done) })
		case kHubSnap:
			if w.store != nil {
				w.store.applySnap(f.Blob)
			}
		case kHubDelta:
			if w.store != nil {
				w.store.applyDelta(&f)
			}
		}
	}
}

func (w *worker) Steal(victim int) (WireTask, bool, error) {
	return w.stealVia(kSteal, victim)
}

// SplitSteal is Steal with split semantics; see hub.SplitSteal.
func (w *worker) SplitSteal(victim int) (WireTask, bool, error) {
	return w.stealVia(kSplit, victim)
}

func (w *worker) stealVia(k kind, victim int) (WireTask, bool, error) {
	if h := w.promo.Load(); h != nil {
		return h.stealVia(k, victim)
	}
	if victim < 0 || victim >= w.size || victim == w.rank {
		return WireTask{}, false, fmt.Errorf("dist: steal from invalid rank %d", victim)
	}
	if cn := w.conn(); cn.sess != nil && cn.sess.isSuspended() {
		// The hub link is mid-resume: a request would sit in the
		// retransmit log until the link heals — fail fast and keep
		// expanding the local frontier instead.
		return WireTask{}, false, nil
	}
	seq, ch := w.pending.register(victim)
	if err := w.conn().send(&frame{Kind: k, From: w.rank, To: victim, Seq: seq, Want: w.opts.StealBatch}); err != nil {
		w.pending.drop(seq)
		return WireTask{}, false, err
	}
	select {
	case res := <-ch:
		if len(res.tasks) == 0 {
			return WireTask{}, false, nil
		}
		w.ctr.stealReplies.Add(1)
		w.ctr.stealTasks.Add(int64(len(res.tasks)))
		for _, t := range res.tasks[1:] {
			w.handler().OnTask(t)
		}
		return res.tasks[0], true, nil
	case <-w.done:
		// Global termination: see hub.Steal — a finished victim may
		// have shut down without anything left to fail this request.
		w.pending.drop(seq)
		return WireTask{}, false, nil
	case <-time.After(stealTimeout):
		w.pending.drop(seq)
		return WireTask{}, false, nil
	}
}

func (w *worker) BroadcastBound(obj int64, node []byte) error {
	if h := w.promo.Load(); h != nil {
		return h.BroadcastBound(obj, node)
	}
	raiseMax(&w.pbStamp, obj)
	// Recorded before the connection is read, so a broadcast that races
	// a takeover either goes out on the promoted link or is re-sent by
	// rejoin, which reads it only after swapping that link in.
	w.ownMu.Lock()
	if w.ownBound == nil || obj > w.ownBound.Obj {
		w.ownBound = &frame{Kind: kBound, From: w.rank, Obj: obj, Blob: append([]byte(nil), node...)}
	}
	w.ownMu.Unlock()
	return w.conn().send(&frame{Kind: kBound, From: w.rank, Obj: obj, Blob: node})
}

func (w *worker) Cancel(obj int64, witness []byte) error {
	if h := w.promo.Load(); h != nil {
		return h.Cancel(obj, witness)
	}
	return w.conn().send(&frame{Kind: kCancel, From: w.rank, Obj: obj, Blob: witness})
}

// Ack queues a hand-over completion ack towards the origin's ledger.
// Acks coalesce like live-task deltas: the flusher drains the buffer
// into one kAck batch per quantum (ids name their own origins; the hub
// splits the batch while routing), so the no-failure cost of
// supervision is one small frame per quantum instead of one per stolen
// task. Retirement latency only delays ledger turnover, never
// correctness.
func (w *worker) Ack(origin int, id uint64) error {
	if h := w.promo.Load(); h != nil {
		return h.Ack(origin, id)
	}
	if origin < 0 || origin >= w.size || origin == w.rank {
		return fmt.Errorf("dist: ack to invalid rank %d", origin)
	}
	w.ackMu.Lock()
	w.ackBuf = append(w.ackBuf, id)
	w.ackMu.Unlock()
	return nil
}

// drainAcks sends the coalesced ack buffer, chunked under the frame
// limit. Undeliverable acks go back in the buffer: on a plain death
// they are moot (the remote ledger died with its locality), but under
// failover the buffer is what the promoted hub inherits, and a
// rejoined worker's next drain delivers them over the new connection.
func (w *worker) drainAcks() {
	w.ackMu.Lock()
	ids := w.ackBuf
	w.ackBuf = nil
	w.ackMu.Unlock()
	for len(ids) > 0 {
		n := len(ids)
		if n > maxStealBatch {
			n = maxStealBatch
		}
		if w.conn().send(&frame{Kind: kAck, From: w.rank, Acks: ids[:n]}) != nil {
			w.ackMu.Lock()
			w.ackBuf = append(w.ackBuf, ids...)
			w.ackMu.Unlock()
			return
		}
		ids = ids[n:]
	}
}

// AddTasks coalesces: the delta joins the accumulator and rides out on
// the next frame of any kind, or on the flusher's next quantum tick.
// A promoted rank applies deltas straight to the global count it now
// owns.
func (w *worker) AddTasks(delta int64) {
	if h := w.promo.Load(); h != nil {
		h.AddTasks(delta)
		return
	}
	w.delta.Add(delta)
}

func (w *worker) Done() <-chan struct{} { return w.done }

func (w *worker) Deaths() <-chan int { return w.deaths.ch }

func (w *worker) Gather(payload []byte) ([][]byte, error) {
	if h := w.promo.Load(); h != nil {
		return h.Gather(payload)
	}
	if err := w.conn().send(&frame{Kind: kGather, From: w.rank, Blob: payload}); err != nil {
		return nil, fmt.Errorf("dist: sending gather payload: %w", err)
	}
	return nil, nil
}

func (w *worker) Close() error {
	if w.closed.CompareAndSwap(false, true) {
		if h := w.promo.Load(); h != nil {
			// The hub this rank became owns the connections (and the
			// promotion listener); its Close is the whole shutdown.
			w.stopFlush()
			return h.Close()
		}
		// Best-effort final ack and delta flush, so a deployment that
		// closes a worker cleanly does not strand termination on lost
		// counts or unretired ledger entries.
		w.drainAcks()
		if d := w.delta.Swap(0); d != 0 {
			w.conn().send(&frame{Kind: kDelta, From: w.rank, Delta: d})
		}
		w.stopFlush()
		w.conn().close()
		if w.promoLn != nil {
			w.promoLn.Close()
		}
	}
	return nil
}
