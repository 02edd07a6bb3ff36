package dist

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Coordinator failover (wire protocol v7). A deployment launched with
// WireOptions.Standby survives rank 0 dying mid-search:
//
//   - The hub continuously replicates its residual state — the peer
//     address table, the retained incumbent, the supervision roots it
//     has handed over (the rank-0 ledger's mirror), gather progress,
//     and the death ledger — to the lowest live worker rank, as
//     coalesced kHubDelta frames plus periodic full kHubSnap
//     snapshots. When the current standby dies, the next-lowest rank
//     is adopted with a fresh full snapshot.
//   - Every worker pre-binds a promotion listener at registration and
//     the table of those addresses is exchanged (kPeerAddr/kPeers,
//     the mesh's own mechanism, now spoken by standby stars too).
//   - On hub death each worker independently elects the lowest rank
//     not known dead — exactly the rank the hub was replicating to,
//     and on a mesh exactly the rank the termination wave re-elects
//     as token initiator. The candidate promotes itself (epoch 1) and
//     the rest re-dial its promotion listener, presenting a kRejoin
//     that carries their cumulative live-task contribution, from
//     which the promoted hub rebuilds the global live count.
//   - The epoch fences generations: a kRejoin for the wrong epoch is
//     refused, and because every stale frame rode a connection that
//     died with the old coordinator, the connection itself is the
//     fence for everything else. One takeover per deployment: if the
//     promoted coordinator dies too, the deployment ends the way a
//     non-standby one does.
//
// Loss windows, accepted and documented: a kHubDelta coalesced but
// not yet flushed when the hub dies (bounded by one flush quantum), a
// bound broadcast in flight during the takeover (pruning opportunity,
// never correctness), and the simultaneous death of the hub and the
// standby before a retarget snapshot lands.

// kHubDelta subtypes, carried in Want.
const (
	hubDeltaMirrorAdd = 1 // To = holder rank, Tasks = mirrored rank-0 hand-overs
	hubDeltaRetire    = 2 // Acks = retired hand-over ids
	hubDeltaIncumbent = 3 // Obj = objective, Blob = encoded incumbent node
	hubDeltaGather    = 4 // To = contributing rank, Seq = 1 when a payload is present, Blob = payload
)

// hubSnapEvery paces full snapshots: one every this many flush quanta
// (deltas keep the standby current in between; the snapshot bounds
// drift from any delta a dying connection swallowed).
const hubSnapEvery = 512

// MirrorEntry is one replicated supervision root: a task rank 0
// handed over (WireTask.ID packs origin 0) and the rank holding it.
// If the holder dies after a takeover, the promoted hub replays the
// task — the root of exactly the subtree whose supervision chain died
// with the coordinator.
type MirrorEntry struct {
	Holder int
	Task   WireTask
}

// GatherSlot is one replicated gather contribution (Blob may be nil:
// a dead rank's slot is contributed as nil so the terminal collective
// cannot block on it).
type GatherSlot struct {
	Rank int
	Blob []byte
}

// HubSnapshot is the coordinator's residual state: everything a
// standby needs to adopt the deployment. v2 (protocol v7) extends the
// v1 preview with the failover epoch, gather progress, and the
// supervision-root mirror, and is what kHubSnap frames carry.
type HubSnapshot struct {
	Epoch     uint64
	Spec      string
	Size      int
	PeerAddrs []string // rank-indexed; slot 0 empty
	Alive     []bool   // rank-indexed liveness, as last decided by the hub
	BestObj   int64    // retained incumbent objective (valid when HasBest)
	BestNode  []byte   // retained incumbent witness
	HasBest   bool
	Gather    []GatherSlot
	Mirror    []MirrorEntry
}

const hubSnapshotVersion = 2

// encodeHubSnapshot serialises a snapshot (the kHubSnap blob).
func encodeHubSnapshot(s *HubSnapshot) []byte {
	b := binary.AppendUvarint(nil, hubSnapshotVersion)
	b = binary.AppendUvarint(b, s.Epoch)
	b = binary.AppendUvarint(b, uint64(s.Size))
	b = binary.AppendUvarint(b, uint64(len(s.Spec)))
	b = append(b, s.Spec...)
	b = appendPeerTable(b, s.PeerAddrs)
	for _, a := range s.Alive {
		if a {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	if s.HasBest {
		b = append(b, 1)
		b = binary.AppendVarint(b, s.BestObj)
		b = binary.AppendUvarint(b, uint64(len(s.BestNode)))
		b = append(b, s.BestNode...)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Gather)))
	for _, g := range s.Gather {
		b = binary.AppendUvarint(b, uint64(g.Rank))
		if g.Blob != nil {
			b = append(b, 1)
			b = binary.AppendUvarint(b, uint64(len(g.Blob)))
			b = append(b, g.Blob...)
		} else {
			b = append(b, 0)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(s.Mirror)))
	for _, e := range s.Mirror {
		b = binary.AppendUvarint(b, uint64(e.Holder))
		b = appendTasks(b, []WireTask{e.Task})
	}
	return b
}

// DecodeHubSnapshot parses a snapshot blob.
func DecodeHubSnapshot(b []byte) (*HubSnapshot, error) {
	r := &frameReader{b: b}
	ver, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if ver != hubSnapshotVersion {
		return nil, fmt.Errorf("dist: hub snapshot version %d, want %d", ver, hubSnapshotVersion)
	}
	s := &HubSnapshot{}
	if s.Epoch, err = r.uvarint(); err != nil {
		return nil, err
	}
	size, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if size > maxPeerTable {
		return nil, fmt.Errorf("dist: hub snapshot size %d", size)
	}
	s.Size = int(size)
	spec, err := r.bytes()
	if err != nil {
		return nil, err
	}
	s.Spec = string(spec)
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n != size {
		return nil, fmt.Errorf("dist: hub snapshot peer table has %d slots, want %d", n, size)
	}
	s.PeerAddrs = make([]string, n)
	for i := range s.PeerAddrs {
		a, err := r.bytes()
		if err != nil {
			return nil, err
		}
		s.PeerAddrs[i] = string(a)
	}
	s.Alive = make([]bool, size)
	for i := range s.Alive {
		v, err := r.byte()
		if err != nil {
			return nil, err
		}
		s.Alive[i] = v != 0
	}
	has, err := r.byte()
	if err != nil {
		return nil, err
	}
	if has != 0 {
		obj, err := r.varint()
		if err != nil {
			return nil, err
		}
		node, err := r.bytes()
		if err != nil {
			return nil, err
		}
		s.BestObj, s.BestNode, s.HasBest = obj, node, true
	}
	ng, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if ng > size {
		return nil, fmt.Errorf("dist: hub snapshot with %d gather slots", ng)
	}
	for i := uint64(0); i < ng; i++ {
		rank, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		present, err := r.byte()
		if err != nil {
			return nil, err
		}
		g := GatherSlot{Rank: int(rank)}
		if present != 0 {
			if g.Blob, err = r.bytes(); err != nil {
				return nil, err
			}
		}
		s.Gather = append(s.Gather, g)
	}
	nm, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nm > maxStealBatch {
		return nil, fmt.Errorf("dist: hub snapshot with %d mirror entries", nm)
	}
	for i := uint64(0); i < nm; i++ {
		holder, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		ts, err := parseTasks(r)
		if err != nil {
			return nil, err
		}
		if len(ts) != 1 {
			return nil, fmt.Errorf("dist: hub snapshot mirror entry with %d tasks", len(ts))
		}
		s.Mirror = append(s.Mirror, MirrorEntry{Holder: int(holder), Task: ts[0]})
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("dist: %d trailing bytes in hub snapshot", len(r.b))
	}
	return s, nil
}

// hubMirror is the coordinator's transport-level copy of its own
// ledger roots: every task its locality handed over (origin-0 ids),
// keyed by hand-over id, with the rank currently holding it. The
// original hub maintains it only to replicate it; the promoted hub
// consults it to replay the roots whose holders die after the
// takeover — the one class of work the engine-level ledgers cannot
// resupervise, because their supervision chains rooted at the dead
// coordinator.
type hubMirror struct {
	mu sync.Mutex
	m  map[uint64]MirrorEntry
}

func newHubMirror() *hubMirror { return &hubMirror{m: make(map[uint64]MirrorEntry)} }

func (m *hubMirror) add(holder int, t WireTask) {
	m.mu.Lock()
	m.m[t.ID] = MirrorEntry{Holder: holder, Task: t}
	m.mu.Unlock()
}

// retire drops a completed hand-over (idempotent; acks can race a
// replay exactly like the engine ledgers' retires).
func (m *hubMirror) retire(id uint64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	delete(m.m, id)
	m.mu.Unlock()
}

// takeHolder removes and returns every entry held by rank.
func (m *hubMirror) takeHolder(holder int) []WireTask {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	var ts []WireTask
	for id, e := range m.m {
		if e.Holder == holder {
			ts = append(ts, e.Task)
			delete(m.m, id)
		}
	}
	m.mu.Unlock()
	return ts
}

// entries copies the mirror for a snapshot.
func (m *hubMirror) entries() []MirrorEntry {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	es := make([]MirrorEntry, 0, len(m.m))
	for _, e := range m.m {
		es = append(es, e)
	}
	m.mu.Unlock()
	return es
}

func (m *hubMirror) install(es []MirrorEntry) {
	m.mu.Lock()
	for _, e := range es {
		m.m[e.Task.ID] = e
	}
	m.mu.Unlock()
}

// hubRepl is the coordinator's replication queue: state deltas
// coalesce here and are drained to the current standby once per flush
// quantum, with a full snapshot every hubSnapEvery quanta (and
// immediately after a retarget).
type hubRepl struct {
	mu      sync.Mutex
	q       []*frame
	retires []uint64
	target  int
	ticks   int
	force   bool
}

func newHubRepl() *hubRepl { return &hubRepl{target: 1, force: true} }

func (r *hubRepl) targetRank() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.target
}

// setTarget adopts a new standby rank; the next flush ships it a full
// snapshot so it starts from a consistent base.
func (r *hubRepl) setTarget(rank int) {
	r.mu.Lock()
	r.target = rank
	r.force = true
	r.mu.Unlock()
}

func (r *hubRepl) noteMirrorAdd(holder int, t WireTask) {
	r.mu.Lock()
	r.q = append(r.q, &frame{Kind: kHubDelta, Want: hubDeltaMirrorAdd, To: holder, Tasks: []WireTask{t}})
	r.mu.Unlock()
}

func (r *hubRepl) noteRetire(id uint64) {
	r.mu.Lock()
	r.retires = append(r.retires, id)
	r.mu.Unlock()
}

func (r *hubRepl) noteIncumbent(obj int64, node []byte) {
	r.mu.Lock()
	r.q = append(r.q, &frame{Kind: kHubDelta, Want: hubDeltaIncumbent, Obj: obj, Blob: node})
	r.mu.Unlock()
}

func (r *hubRepl) noteGather(rank int, blob []byte) {
	seq := uint64(0)
	if blob != nil {
		seq = 1
	}
	r.mu.Lock()
	r.q = append(r.q, &frame{Kind: kHubDelta, Want: hubDeltaGather, To: rank, Seq: seq, Blob: blob})
	r.mu.Unlock()
}

// flushTo drains the queue onto the standby's connection. A send
// error just leaves the rest for the retarget snapshot: the standby
// is dying, and workerDied will re-point the queue.
func (r *hubRepl) flushTo(cn *wconn, snap func() []byte) {
	if cn == nil || cn.dead.Load() {
		return
	}
	r.mu.Lock()
	fs := r.q
	r.q = nil
	retires := r.retires
	r.retires = nil
	r.ticks++
	snapDue := r.force || r.ticks >= hubSnapEvery
	if snapDue {
		r.ticks = 0
		r.force = false
	}
	r.mu.Unlock()
	for _, f := range fs {
		if cn.send(f) != nil {
			return
		}
	}
	for len(retires) > 0 {
		n := len(retires)
		if n > maxStealBatch {
			n = maxStealBatch
		}
		if cn.send(&frame{Kind: kHubDelta, Want: hubDeltaRetire, Acks: retires[:n]}) != nil {
			return
		}
		retires = retires[n:]
	}
	if snapDue {
		cn.send(&frame{Kind: kHubSnap, Blob: snap()})
	}
}

// standbyState is the worker-side store of replicated hub state: the
// last full snapshot, overlaid with every delta since. Only the rank
// the hub is currently replicating to accumulates anything; everyone
// else's store stays empty (and is never consulted — the candidate
// the survivors elect is the replicated rank).
type standbyState struct {
	mu      sync.Mutex
	have    bool
	dead    []int
	mirror  map[uint64]MirrorEntry
	gather  map[int][]byte
	hasBest bool
	bestObj int64
	bestNod []byte
}

func newStandbyState() *standbyState {
	return &standbyState{
		mirror: make(map[uint64]MirrorEntry),
		gather: make(map[int][]byte),
	}
}

// applySnap replaces the store with a full snapshot (deltas and
// snapshots ride the same ordered connection, so the snapshot already
// reflects every delta sent before it).
func (s *standbyState) applySnap(blob []byte) {
	snap, err := DecodeHubSnapshot(blob)
	if err != nil {
		return // a garbled snapshot is strictly worse than the last good one
	}
	s.mu.Lock()
	s.have = true
	s.dead = s.dead[:0]
	for r, a := range snap.Alive {
		if !a && r > 0 {
			s.dead = append(s.dead, r)
		}
	}
	s.mirror = make(map[uint64]MirrorEntry, len(snap.Mirror))
	for _, e := range snap.Mirror {
		s.mirror[e.Task.ID] = e
	}
	s.gather = make(map[int][]byte, len(snap.Gather))
	for _, g := range snap.Gather {
		s.gather[g.Rank] = g.Blob
	}
	s.hasBest, s.bestObj, s.bestNod = snap.HasBest, snap.BestObj, snap.BestNode
	s.mu.Unlock()
}

// applyDelta overlays one kHubDelta.
func (s *standbyState) applyDelta(f *frame) {
	s.mu.Lock()
	switch f.Want {
	case hubDeltaMirrorAdd:
		for _, t := range f.Tasks {
			s.mirror[t.ID] = MirrorEntry{Holder: f.To, Task: t}
		}
	case hubDeltaRetire:
		for _, id := range f.Acks {
			delete(s.mirror, id)
		}
	case hubDeltaIncumbent:
		if len(f.Blob) > 0 && (!s.hasBest || f.Obj > s.bestObj) {
			s.hasBest, s.bestObj, s.bestNod = true, f.Obj, f.Blob
		}
	case hubDeltaGather:
		if _, seen := s.gather[f.To]; !seen {
			var blob []byte
			if f.Seq == 1 {
				blob = f.Blob
			}
			s.gather[f.To] = blob
		}
	}
	s.mu.Unlock()
}

// hubStateView is a consolidated copy of the store, taken once at
// promotion time.
type hubStateView struct {
	dead    []int
	mirror  []MirrorEntry
	gather  map[int][]byte
	hasBest bool
	bestObj int64
	bestNod []byte
}

func (s *standbyState) view() hubStateView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := hubStateView{
		dead:    append([]int(nil), s.dead...),
		gather:  make(map[int][]byte, len(s.gather)),
		hasBest: s.hasBest,
		bestObj: s.bestObj,
		bestNod: s.bestNod,
	}
	for r, b := range s.gather {
		v.gather[r] = b
	}
	for _, e := range s.mirror {
		v.mirror = append(v.mirror, e)
	}
	return v
}

// failoverCandidate is the takeover election every survivor computes
// independently: the lowest worker rank not known dead — exactly the
// rank the hub replicated to, and (on a mesh) exactly the rank the
// termination wave re-elects as initiator. -1 when no one is left.
func failoverCandidate(size int, deaths *deathBox) int {
	for r := 1; r < size; r++ {
		if !deaths.isDead(r) {
			return r
		}
	}
	return -1
}

// ---- star takeover ----------------------------------------------------

// failover is the star worker's hub-loss hook. It reports true when
// the takeover protocol owns shutdown from here on (either this rank
// promoted itself or it re-joined the promoted hub); false sends the
// caller down the deployment-over path.
func (w *worker) failover() bool {
	if !w.standby || len(w.peerAddrs) == 0 {
		return false
	}
	select {
	case <-w.done:
		return false // post-termination disconnect: a normal shutdown
	default:
	}
	if !w.epoch.CompareAndSwap(0, 1) {
		return false // the promoted coordinator died too: one takeover per deployment
	}
	// No reply can arrive on the dead connection, and the engine must
	// learn rank 0 died (its ledgers replay every outstanding hand-over:
	// any ack relayed through the dying hub is gone).
	w.pending.failAll()
	w.deaths.announce(0)
	cand := failoverCandidate(w.size, w.deaths)
	if cand < 0 {
		return false
	}
	// Capture this rank's cumulative live-task contribution. cumSent
	// counts every delta that reached a wire; whatever is still
	// coalesced joins it here. Under the old connection's write lock no
	// send is mid-flight, so the sum is exact — the promoted hub
	// rebuilds liveAt[rank] from exactly this number.
	old := w.conn()
	old.wmu.Lock()
	rep := w.cumSent.Load() + w.delta.Swap(0)
	w.cumSent.Store(rep)
	old.wmu.Unlock()
	if cand == w.rank {
		return w.promote(rep)
	}
	return w.rejoin(cand, rep)
}

// promote turns this worker into the deployment's coordinator: a hub
// seeded from the replicated state, accepting kRejoin connections on
// the promotion listener bound at registration. The worker endpoint
// stays the engine's Transport and delegates to the hub.
func (w *worker) promote(rep int64) bool {
	hd := w.handler()
	if w.promoLn == nil || w.store == nil || hd == nil {
		return false
	}
	st := w.store.view()
	h := &hub{
		size:     w.size,
		self:     w.rank,
		epoch:    1,
		standby:  true,
		conns:    make([]*wconn, w.size),
		liveAt:   make([]atomic.Int64, w.size),
		opts:     w.opts,
		started:  make(chan struct{}),
		done:     w.done,
		doneOnce: &w.doneOnce,
		deaths:   w.deaths,
		blobs:    make([][]byte, w.size),
		contrib:  make([]bool, w.size),
		gotAll:   make(chan struct{}),
		peerPrio: newPeerPrios(w.size),
		mirror:   newHubMirror(),
		ln:       w.promoLn,
	}
	h.pbStamp.Store(w.pbStamp.Load())
	h.pbSeen.Store(w.pbSeen.Load())
	h.h.Store(hd)
	h.stOnce.Do(func() { close(h.started) })
	h.mirror.install(st.mirror)
	if st.hasBest {
		h.inc.keep(st.bestObj, st.bestNod)
		raiseMax(&h.pbStamp, st.bestObj)
	}
	// Hold the count above zero until every survivor's contribution is
	// re-installed: a partial sum crossing zero is not termination.
	h.live.Add(1)
	w.promo.Store(h)
	w.stopFlush() // the hub's flusher takes over; pingLoop exits with it
	w.ackMu.Lock()
	buf := w.ackBuf
	w.ackBuf = nil
	w.ackMu.Unlock()
	if len(buf) > 0 {
		h.ackMu.Lock()
		h.ackBuf = append(h.ackBuf, buf...)
		h.ackMu.Unlock()
	}
	h.addAt(h.self, rep)
	// Rank 0 will never contribute to the gather; neither will anyone
	// already dead. Contributions the old hub had collected survive via
	// the replica.
	h.contribute(0, nil)
	dead := make(map[int]bool)
	for r := 1; r < w.size; r++ {
		if r != w.rank && w.deaths.isDead(r) {
			dead[r] = true
		}
	}
	for _, r := range st.dead {
		if r > 0 && r != w.rank {
			dead[r] = true
		}
	}
	for r := range dead {
		h.contribute(r, nil)
	}
	for rank, blob := range st.gather {
		if rank != 0 && rank != w.rank {
			h.contribute(rank, blob)
		}
	}
	go h.adoptDeployment(dead)
	go h.livenessLoop()
	go h.ackFlushLoop()
	return true
}

// adoptDeployment is the promoted hub's registration window: every
// surviving worker re-dials the promotion listener and presents a
// kRejoin carrying its cumulative contribution. Ranks that never make
// it back within the liveness window are declared dead — their
// mirrored supervision roots replay here, like any other death.
func (h *hub) adoptDeployment(dead map[int]bool) {
	expected := make(map[int]bool)
	for r := 1; r < h.size; r++ {
		if r != h.self && !dead[r] {
			expected[r] = true
		}
	}
	if h.opts.LinkGrace > 0 {
		h.sessions = newSessRegistry()
	}
	deadline := time.Now().Add(h.opts.LivenessTimeout)
	for len(expected) > 0 && !h.closed.Load() {
		if d, ok := h.ln.(*net.TCPListener); ok {
			d.SetDeadline(deadline)
		}
		c, err := h.ln.Accept()
		if err != nil {
			break // window over (deadline) or hub closed
		}
		cn := newWconn(c, &h.ctr)
		cn.pb = &h.pbStamp
		cn.ps = selfPrioFn(&h.h)
		cn.psFrom = h.self
		c.SetReadDeadline(deadline)
		var rj frame
		if err := cn.recv(&rj); err != nil || rj.Kind != kRejoin || uint64(rj.Want) != h.epoch ||
			rj.From <= 0 || rj.From >= h.size || !expected[rj.From] || h.conns[rj.From] != nil {
			cn.close()
			continue
		}
		c.SetReadDeadline(time.Time{})
		if h.sessions != nil && rj.Seq != 0 {
			// The rejoining worker minted a fresh session for the
			// promoted link and carried its id in the kRejoin.
			cn.sess = newSession(rj.Seq, h.opts.LinkGrace)
			h.sessions.add(rj.Seq, cn)
		}
		cn.attachFault(h.opts.Fault, h.self, rj.From)
		h.conns[rj.From] = cn
		h.addAt(rj.From, rj.Obj)
		if rj.Delta != 0 {
			h.addAt(rj.From, rj.Delta)
		}
		if rj.HasPB {
			h.meldBound(rj.From, rj.PB)
			// A bound raised during the takeover blackout has no
			// explicit broadcast in flight anymore: relay it like one.
			// Ranks still rejoining pick it up from their welcome's
			// piggyback instead (their conns are nil here).
			h.fanOut(&frame{Kind: kBound, From: rj.From, Obj: rj.PB}, rj.From)
		}
		if rj.HasPS {
			notePeerPrio(h.peerPrio, rj.From, rj.PS)
		}
		cn.send(&frame{Kind: kWelcome, From: h.self, To: rj.From, Want: h.size})
		go h.serve(rj.From)
		delete(expected, rj.From)
	}
	if d, ok := h.ln.(*net.TCPListener); ok {
		d.SetDeadline(time.Time{})
	}
	if h.sessions != nil {
		// The rejoin window is over; the promotion listener now serves
		// session resumes for the links it just accepted.
		go acceptResumes(h.ln, h.sessions, &h.closed)
	}
	for r := range expected {
		h.deadNoConn(r)
	}
	for r := range dead {
		h.replayMirror(r)
	}
	// Release the rejoin guard; if the surviving contributions already
	// sum to zero, the search ended while the hub was away.
	if h.live.Add(-1) == 0 {
		h.terminate()
	}
}

// deadNoConn handles a rank that never re-joined the promoted hub:
// the full death protocol, minus the connection there is to mourn.
func (h *hub) deadNoConn(rank int) {
	h.deaths.announce(rank)
	h.fanOut(&frame{Kind: kDeath, From: h.self, Want: rank}, rank)
	h.contribute(rank, nil)
	h.replayMirror(rank)
}

// replayMirror re-enqueues the dead holder's replicated rank-0
// hand-overs as local work. Re-execution is replay-safe (the engine's
// death-replay invariant); a late ack for a replayed id is absorbed by
// the mirror's idempotent retire.
func (h *hub) replayMirror(holder int) {
	ts := h.mirror.takeHolder(holder)
	if len(ts) == 0 {
		return
	}
	hd := h.handler()
	if hd == nil {
		return
	}
	for _, t := range ts {
		hd.OnTask(t)
	}
}

// rejoin re-attaches a surviving worker to the promoted hub: dial the
// candidate's promotion listener (pre-bound at registration, so the
// dial succeeds even before the candidate finishes promoting), present
// the kRejoin, swap the connection, restart the read loop.
func (w *worker) rejoin(cand int, rep int64) bool {
	addr := w.peerAddrs[cand]
	if addr == "" {
		return false
	}
	c, err := dialRetry(addr)
	if err != nil {
		return false
	}
	cn := newWconn(c, &w.ctr)
	cn.pending = &w.delta
	cn.cum = &w.cumSent
	cn.pb = &w.pbStamp
	cn.ps = selfPrioFn(&w.h)
	cn.psFrom = w.rank
	rj := &frame{Kind: kRejoin, From: w.rank, Want: int(w.epoch.Load()), Obj: rep}
	if w.opts.LinkGrace > 0 {
		// Mint a fresh resumable session for the promoted link — the old
		// hub session died with the old coordinator — and carry its id
		// in the kRejoin for the promoted hub to register.
		s := newSession(mintSessionID(w.rank), w.opts.LinkGrace)
		s.rank = w.rank
		s.redial = sessionRedialer(addr)
		cn.sess = s
		rj.Seq = s.id
	}
	cn.attachFault(w.opts.Fault, w.rank, cand)
	if err := cn.send(rj); err != nil {
		cn.close()
		return false
	}
	c.SetReadDeadline(time.Now().Add(dialTimeout))
	var welcome frame
	if err := cn.recv(&welcome); err != nil || welcome.Kind != kWelcome {
		cn.close()
		return false
	}
	c.SetReadDeadline(time.Time{})
	// The welcome piggybacks the promoted hub's bound stamp like any
	// other frame; received outside the read loop, it must be melded
	// here or news learned during the blackout would be dropped (the
	// sender has already marked it carried by this connection).
	if welcome.HasPB {
		w.meldBound(welcome.From, welcome.PB)
	}
	w.cn.Store(cn)
	// A bound broadcast between building the kRejoin and the swap went
	// down the dead hub link, and its piggyback stamp rides only later
	// traffic, which an idle rank may never send: re-send this rank's
	// best broadcast on the new link. Bounds meld by maximum, so a
	// repeat is harmless.
	w.ownMu.Lock()
	own := w.ownBound
	w.ownMu.Unlock()
	if own != nil {
		f := *own
		cn.send(&f)
	}
	go w.readLoop(cn)
	return true
}
