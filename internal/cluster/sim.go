package cluster

import (
	"math"
	"strconv"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/rngutil"
	"repro/internal/serve"
)

// NetModel prices one message hop between the router and a node: delay is
// Base·exp(N(0, Jitter)) seconds, further multiplied by the scenario's
// MsgDelayMult when set.
type NetModel struct {
	Base, Jitter float64
}

// DefaultNetModel suits the campaign timing: ~0.2 ms hops against ~1 ms
// services and a 25 ms deadline.
func DefaultNetModel() NetModel {
	return NetModel{Base: 0.2e-3, Jitter: 0.3}
}

// SimConfig drives one (scenario, level, policy) cell of the cluster
// campaign through the virtual-time simulator. Bit-reproducible in
// (config, RNG seed): the event loop is single-threaded and heap-ordered
// by (time, seq), exactly like the internal/serve simulator it extends.
type SimConfig struct {
	Policy   Policy
	Traffic  TrafficConfig
	Lat      serve.LatencyModel
	Net      NetModel
	Detector DetectorConfig
	// Duration is the arrival window in virtual seconds.
	Duration float64
	// Nodes is the fleet size; Placement the shard→node assignment.
	Nodes     int
	Placement Placement
	// ShardPipes[s] serves shard s's inferences. Pipelines must be pure
	// (no fault hook): the single-threaded sim shares them across nodes
	// and cells.
	ShardPipes []serve.Pipeline
	// Requests is the graded request stream (drawn in order, wrapping).
	Requests []serve.SimRequest
	// Plan and Schedule are the node-level fault scenario: Schedule's
	// timed events drive crash/restart/slow/partition, Plan's MsgLoss and
	// MsgDelayMult degrade every message.
	Plan     faults.NodePlan
	Schedule []faults.NodeEvent
	// RefreshEvery is the model-version broadcast period: the router bumps
	// the fleet version and pushes it to every reachable node. Nodes that
	// miss broadcasts (crashed, partitioned) serve stale until resynced.
	RefreshEvery float64
	// RNG seeds every stream; Obs, when non-nil, accumulates counters and
	// per-node/per-shard labeled series (virtual-time fed, so dumps are
	// byte-identical at any -workers value).
	RNG *rngutil.Source
	Obs *obs.Registry
}

type cReq struct {
	id       int64
	idx      int // request-stream index
	tenant   int
	shard    int
	client   int // closed-loop client index within tenant, -1 for open-loop
	arrive   float64
	deadline float64
	stampVer int64
	attempts int
	tried    []int
	hedged   bool
	done     bool
}

func (r *cReq) triedNode(id int) bool {
	for _, t := range r.tried {
		if t == id {
			return true
		}
	}
	return false
}

// attempt is one dispatch of a request to a node, threaded through the
// request→service→reply message chain.
type attempt struct {
	req     *cReq
	node    int
	epoch   int64
	sentAt  float64
	ver     int64
	correct bool
}

type node struct {
	id      int
	up      bool
	epoch   int64 // bumped on crash; invalidates in-flight service events
	version int64
	freeAt  float64
	slow    int // nesting count of active slow windows
	// minority marks the node cut off in the current partition.
	minority bool
	// router-side detector view.
	state    int
	misses   int
	okStreak int
	// accounting.
	served int64
}

type sim struct {
	cfg    SimConfig
	pol    Policy
	nodes  []*node
	place  [][]int // shard → placement node IDs, best first
	events serve.EventQueue[func(t float64)]
	rr     int

	gen     *trafficGen
	buckets []*tokenBucket
	latRN   *rngutil.Source
	netRN   *rngutil.Source
	hbRN    *rngutil.Source
	verRN   *rngutil.Source
	thinkRN *rngutil.Source

	routerVer int64
	partition bool
	horizon   float64

	ids      int64
	reqIdx   int
	disposed map[int64]bool
	replyLat *obs.LatencyWindow // recent reply latencies for the hedge estimator

	shardServed []int64
	m           Metrics
}

// RunClusterSim drives one policy arm through the fleet simulator and
// returns its metrics.
func RunClusterSim(cfg SimConfig) Metrics {
	if cfg.Policy.MaxAttempts <= 0 {
		cfg.Policy.MaxAttempts = 1
	}
	s := &sim{
		cfg:         cfg,
		pol:         cfg.Policy,
		gen:         newTrafficGen(cfg.Traffic, cfg.RNG),
		latRN:       cfg.RNG.Child("service"),
		netRN:       cfg.RNG.Child("network"),
		hbRN:        cfg.RNG.Child("heartbeat"),
		verRN:       cfg.RNG.Child("version"),
		thinkRN:     cfg.RNG.Child("think"),
		horizon:     cfg.Duration + 0.2,
		disposed:    map[int64]bool{},
		replyLat:    obs.NewLatencyWindow(64),
		shardServed: make([]int64, cfg.Placement.Shards),
	}
	memberIDs := make([]int, cfg.Nodes)
	for i := range memberIDs {
		memberIDs[i] = i
		s.nodes = append(s.nodes, &node{id: i, up: true})
	}
	s.place = cfg.Placement.Table(memberIDs)
	for _, t := range cfg.Traffic.Tenants {
		s.buckets = append(s.buckets, newTokenBucket(t.RatePerSec, t.Burst))
	}

	s.events.Push(s.gen.Next(0), s.onArrival)
	for ti, t := range cfg.Traffic.Tenants {
		for c := 0; c < t.ClosedClients; c++ {
			at := s.thinkRN.Uniform(0, math.Max(t.ThinkTime, 1e-6))
			s.pushClient(at, ti, c)
		}
	}
	if s.pol.Detector {
		for i := range s.nodes {
			s.pushHeartbeat(cfg.Detector.HeartbeatEvery*float64(i+1)/float64(cfg.Nodes), i)
		}
	}
	if cfg.RefreshEvery > 0 {
		s.events.Push(cfg.RefreshEvery, s.onVersionBump)
	}
	for _, ev := range cfg.Schedule {
		s.events.Push(ev.T, func(t float64) { s.onScenario(t, ev) })
	}

	for s.events.Len() > 0 {
		t, f := s.events.Pop()
		f(t)
	}
	s.exportObs()
	return s.m
}

func (s *sim) pushClient(t float64, tenant, client int) {
	s.events.Push(t, func(t float64) { s.onClientArrival(t, tenant, client) })
}

func (s *sim) pushHeartbeat(t float64, nodeID int) {
	s.events.Push(t, func(t float64) { s.onHeartbeat(t, nodeID) })
}

func (s *sim) reachable(n *node) bool {
	return n.up && !(s.partition && n.minority)
}

func (s *sim) netDelay() float64 {
	d := s.cfg.Net.Base * math.Exp(s.netRN.Normal(0, s.cfg.Net.Jitter))
	if s.cfg.Plan.MsgDelayMult > 1 {
		d *= s.cfg.Plan.MsgDelayMult
	}
	return d
}

func (s *sim) msgLost() bool {
	return s.cfg.Plan.MsgLoss > 0 && s.netRN.Bernoulli(s.cfg.Plan.MsgLoss)
}

// terminal marks the request's one terminal disposition; callers increment
// the matching counter iff it returns true. Double terminals are counted,
// never silently absorbed — the request-ID accounting invariant.
func (s *sim) terminal(t float64, req *cReq) bool {
	if req.done || s.disposed[req.id] {
		s.m.AccountingViolations++
		return false
	}
	req.done = true
	s.disposed[req.id] = true
	if req.client >= 0 {
		think := s.cfg.Traffic.Tenants[req.tenant].ThinkTime
		u := s.thinkRN.Uniform(0, 1)
		if u <= 0 {
			u = 1e-12
		}
		next := t - math.Log(u)*think
		if next <= s.cfg.Duration {
			s.pushClient(next, req.tenant, req.client)
		}
	}
	return true
}

func (s *sim) onArrival(t float64) {
	if t > s.cfg.Duration {
		return
	}
	s.events.Push(s.gen.Next(t), s.onArrival)
	s.admit(t, s.newRequest(t, s.gen.Tenant(), -1))
}

func (s *sim) onClientArrival(t float64, tenant, client int) {
	if t > s.cfg.Duration {
		return
	}
	s.admit(t, s.newRequest(t, tenant, client))
}

func (s *sim) newRequest(t float64, tenant, client int) *cReq {
	s.ids++
	req := &cReq{
		id:       s.ids,
		idx:      s.reqIdx,
		tenant:   tenant,
		shard:    s.reqIdx % s.cfg.Placement.Shards,
		client:   client,
		arrive:   t,
		deadline: t + s.pol.Deadline,
		stampVer: s.routerVer,
	}
	s.reqIdx++
	return req
}

func (s *sim) admit(t float64, req *cReq) {
	s.m.Offered++
	if s.pol.Admission && !s.buckets[req.tenant].take(t) {
		if s.terminal(t, req) {
			s.m.RateLimited++
		}
		return
	}
	cands := s.candidates(req, t)
	if len(cands) == 0 {
		// Every replica of the shard is out of rotation (down, suspect, or
		// stranded in the minority cell): shed at the front door rather
		// than serve a stale shard or let the request rot to its deadline.
		if s.terminal(t, req) {
			s.m.Unavailable++
		}
		return
	}
	s.events.Push(req.deadline, func(t float64) { s.onDeadline(t, req) })
	s.dispatch(t, req, cands[0], false)
}

// candidates orders the shard's placement nodes for the next dispatch.
// With the detector on, only Alive nodes are routable, least router-side
// backlog first (load-aware tie-breaking), placement rank breaking exact
// ties. Without it, the router rotates blindly over the placement — down
// and partitioned nodes included, exactly the naivety the campaign
// measures.
func (s *sim) candidates(req *cReq, t float64) []int {
	placed := s.place[req.shard]
	if !s.pol.Detector {
		out := make([]int, 0, len(placed))
		start := s.rr
		s.rr++
		for i := range placed {
			id := placed[(start+i)%len(placed)]
			if !req.triedNode(id) {
				out = append(out, id)
			}
		}
		return out
	}
	type cand struct {
		id      int
		rank    int
		backlog float64
	}
	cands := make([]cand, 0, len(placed))
	for rank, id := range placed {
		n := s.nodes[id]
		if n.state != dAlive || req.triedNode(id) {
			continue
		}
		backlog := n.freeAt - t
		if backlog < 0 {
			backlog = 0
		}
		cands = append(cands, cand{id, rank, backlog})
	}
	for i := 1; i < len(cands); i++ {
		c := cands[i]
		j := i - 1
		for j >= 0 && (cands[j].backlog > c.backlog ||
			(cands[j].backlog == c.backlog && cands[j].rank > c.rank)) {
			cands[j+1] = cands[j]
			j--
		}
		cands[j+1] = c
	}
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.id
	}
	return out
}

func (s *sim) dispatch(t float64, req *cReq, nodeID int, isHedge bool) {
	req.tried = append(req.tried, nodeID)
	if isHedge {
		req.hedged = true
		s.m.Hedges++
	} else {
		req.attempts++
	}
	att := &attempt{req: req, node: nodeID, sentAt: t}
	if s.msgLost() {
		s.m.MsgsLost++
	} else {
		s.events.Push(t+s.netDelay(), func(t float64) { s.onReqAtNode(t, att) })
	}
	if !isHedge && req.attempts < s.pol.MaxAttempts && s.pol.RetryAfter > 0 {
		attemptNo := req.attempts
		s.events.Push(t+s.pol.RetryAfter, func(t float64) { s.onRetry(t, req, attemptNo) })
	}
	if !isHedge && !req.hedged && s.pol.Hedge && len(s.place[req.shard]) > 1 {
		s.events.Push(t+s.hedgeDelay(), func(t float64) { s.onHedge(t, req) })
	}
}

// hedgeDelay is the router's adaptive hedge trigger: the HedgeQuantile of
// the last 64 reply latencies (unbiased nearest-rank estimate), clamped to
// [HedgeMin, Deadline/2].
func (s *sim) hedgeDelay() float64 {
	return s.replyLat.HedgeDelay(s.pol.HedgeQuantile, s.pol.HedgeMin, s.pol.Deadline/2)
}

func (s *sim) onReqAtNode(t float64, att *attempt) {
	n := s.nodes[att.node]
	if !s.reachable(n) {
		// The request died crossing a partition boundary, or hit a node
		// that crashed while it was in flight.
		s.m.MsgsLost++
		return
	}
	start := t
	if n.freeAt > start {
		start = n.freeAt
	}
	dur := s.cfg.Lat.AttemptDuration(s.latRN, false)
	if n.slow > 0 && s.cfg.Plan.SlowFactor > 1 {
		dur *= s.cfg.Plan.SlowFactor
	}
	n.freeAt = start + dur
	att.epoch = n.epoch
	att.ver = n.version
	req := att.req
	y, _ := s.cfg.ShardPipes[req.shard].Infer(s.cfg.Requests[req.idx%len(s.cfg.Requests)].X, false)
	att.correct = y.ArgMax() == s.cfg.Requests[req.idx%len(s.cfg.Requests)].Want
	s.events.Push(start+dur, func(t float64) { s.onNodeDone(t, att) })
}

func (s *sim) onNodeDone(t float64, att *attempt) {
	n := s.nodes[att.node]
	if !n.up || n.epoch != att.epoch {
		// The node crashed mid-service: the in-flight work is gone. The
		// router's retry timer or the deadline covers the request.
		return
	}
	n.served++
	s.shardServed[att.req.shard]++
	if s.msgLost() {
		s.m.MsgsLost++
		return
	}
	s.events.Push(t+s.netDelay(), func(t float64) { s.onReply(t, att) })
}

func (s *sim) onReply(t float64, att *attempt) {
	if s.partition && s.nodes[att.node].minority {
		// The reply can't cross the partition back to the router.
		s.m.MsgsLost++
		return
	}
	req := att.req
	if req.done {
		// First accepted reply wins; the race loser is discarded here —
		// never double-served.
		s.m.DupReplies++
		return
	}
	s.replyLat.Add(t - att.sentAt)
	stale := att.ver < req.stampVer
	if stale && s.pol.VersionCheck {
		s.m.StaleRejected++
		if req.attempts < s.pol.MaxAttempts && t < req.deadline {
			if cands := s.candidates(req, t); len(cands) > 0 {
				s.m.Retries++
				s.dispatch(t, req, cands[0], false)
				return
			}
		}
		// Out of fresh options: shed rather than serve the stale shard.
		if s.terminal(t, req) {
			s.m.Shed++
		}
		return
	}
	if s.terminal(t, req) {
		s.m.Completed++
		s.m.latencies = append(s.m.latencies, t-req.arrive)
		correct := att.correct && !stale
		if stale {
			s.m.StaleServed++
		}
		if correct {
			s.m.Correct++
			s.m.Good++
		}
	}
}

func (s *sim) onRetry(t float64, req *cReq, attemptNo int) {
	// Fire only for the newest attempt, and only if it is still
	// unanswered (a stale-rejection retry supersedes this timer).
	if req.done || req.attempts != attemptNo || t >= req.deadline {
		return
	}
	cands := s.candidates(req, t)
	if len(cands) == 0 {
		return
	}
	// Retry only where it can still win: a candidate whose backlog eats
	// the remaining deadline budget would just queue more work onto an
	// overloaded node without saving this request.
	if backlog := s.nodes[cands[0]].freeAt - t; backlog > (req.deadline-t)/2 {
		return
	}
	s.m.Retries++
	s.dispatch(t, req, cands[0], false)
}

func (s *sim) onHedge(t float64, req *cReq) {
	if req.done || req.hedged || t >= req.deadline {
		return
	}
	// Hedge only onto an idle node: a hedge that queues behind other work
	// cannot beat the primary, and during overload it would double the
	// load exactly when capacity is scarcest.
	if cands := s.candidates(req, t); len(cands) > 0 && s.nodes[cands[0]].freeAt <= t {
		s.dispatch(t, req, cands[0], true)
	}
}

func (s *sim) onDeadline(t float64, req *cReq) {
	if req.done {
		return
	}
	if s.terminal(t, req) {
		s.m.Expired++
	}
}

// onHeartbeat probes one node: a round trip that fails on partition, a
// down node, or either leg getting lost. The detector folds the result in.
func (s *sim) onHeartbeat(t float64, nodeID int) {
	if t <= s.horizon {
		s.pushHeartbeat(t+s.cfg.Detector.HeartbeatEvery, nodeID)
	}
	n := s.nodes[nodeID]
	lost := s.cfg.Plan.MsgLoss > 0 && (s.hbRN.Bernoulli(s.cfg.Plan.MsgLoss) || s.hbRN.Bernoulli(s.cfg.Plan.MsgLoss))
	if s.reachable(n) && !lost {
		n.misses = 0
		switch n.state {
		case dAlive:
			if n.version < s.routerVer {
				// The probe reply exposes a stale shard on a live node
				// (a restart that missed broadcasts): resync it.
				n.version = s.routerVer
				s.m.Resyncs++
			}
		case dSuspect:
			n.state = dAlive
		case dDown, dProbation:
			n.state = dProbation
			n.okStreak++
			if n.okStreak >= s.cfg.Detector.ReadmitStreak {
				n.state = dAlive
				n.okStreak = 0
				n.version = s.routerVer
				s.m.Readmits++
				s.m.Resyncs++
			}
		}
		return
	}
	n.okStreak = 0
	n.misses++
	switch {
	case n.state == dAlive && n.misses >= s.cfg.Detector.SuspectMisses:
		n.state = dSuspect
		s.m.Suspects++
	case n.state == dSuspect && n.misses >= s.cfg.Detector.DownMisses:
		n.state = dDown
		s.m.Quarantines++
	case n.state == dProbation:
		n.state = dDown
	}
}

// onVersionBump advances the fleet model version and broadcasts the
// delta. Deltas apply contiguously (log replication): a node that is
// down, partitioned, or loses one broadcast has a gap it cannot bridge
// from later deltas alone — it serves stale until a detector resync
// pushes the full state. Policies without the detector never resync,
// which is exactly the staleness the campaign measures.
func (s *sim) onVersionBump(t float64) {
	s.routerVer++
	for _, n := range s.nodes {
		if s.reachable(n) && n.version == s.routerVer-1 &&
			!(s.cfg.Plan.MsgLoss > 0 && s.verRN.Bernoulli(s.cfg.Plan.MsgLoss)) {
			n.version = s.routerVer
		}
	}
	if t+s.cfg.RefreshEvery <= s.cfg.Duration {
		s.events.Push(t+s.cfg.RefreshEvery, s.onVersionBump)
	}
}

func (s *sim) onScenario(t float64, ev faults.NodeEvent) {
	switch ev.Kind {
	case faults.NodeCrash:
		n := s.nodes[ev.Node]
		if n.up {
			n.up = false
			n.epoch++
			n.freeAt = 0
			s.m.Crashes++
		}
	case faults.NodeRestart:
		n := s.nodes[ev.Node]
		if !n.up {
			// Back, but with whatever model version it had at crash time:
			// stale until a broadcast or a detector resync reaches it.
			n.up = true
			n.freeAt = t
			s.m.Restarts++
		}
	case faults.NodeSlowStart:
		s.nodes[ev.Node].slow++
	case faults.NodeSlowEnd:
		if n := s.nodes[ev.Node]; n.slow > 0 {
			n.slow--
		}
	case faults.PartitionStart:
		s.partition = true
		for _, id := range ev.Nodes {
			s.nodes[id].minority = true
		}
	case faults.PartitionHeal:
		s.partition = false
		for _, n := range s.nodes {
			n.minority = false
		}
	}
}

// exportObs folds the cell's final accounting into the shared registry,
// including the per-node and per-shard labeled series. Cells run
// sequentially, so accumulation order — and the stable dump — is
// deterministic.
func (s *sim) exportObs() {
	r := s.cfg.Obs
	if r == nil {
		return
	}
	add := func(name, help string, v int) {
		r.Counter(name, help).Add(int64(v))
	}
	add("cluster_sim_offered_total", "requests offered to the simulated fleet", s.m.Offered)
	add("cluster_sim_completed_total", "requests answered with an accepted reply", s.m.Completed)
	add("cluster_sim_good_total", "requests answered on time, correctly, and fresh", s.m.Good)
	add("cluster_sim_ratelimited_total", "requests rejected by a tenant token bucket", s.m.RateLimited)
	add("cluster_sim_unavailable_total", "requests with no routable replica at admission", s.m.Unavailable)
	add("cluster_sim_shed_total", "requests shed after stale replies exhausted their retries", s.m.Shed)
	add("cluster_sim_expired_total", "requests that hit their deadline unanswered", s.m.Expired)
	add("cluster_sim_stale_served_total", "accepted replies computed against a stale model version", s.m.StaleServed)
	add("cluster_sim_stale_rejected_total", "stale replies rejected by the version check", s.m.StaleRejected)
	add("cluster_sim_retries_total", "retry dispatches", s.m.Retries)
	add("cluster_sim_hedges_total", "hedged dispatches", s.m.Hedges)
	add("cluster_sim_dup_replies_total", "race-losing replies discarded at the router", s.m.DupReplies)
	add("cluster_sim_msgs_lost_total", "messages lost to partition, crash, or the lossy fabric", s.m.MsgsLost)
	add("cluster_sim_crashes_total", "node crash events", s.m.Crashes)
	add("cluster_sim_quarantines_total", "detector down transitions", s.m.Quarantines)
	add("cluster_sim_readmits_total", "quarantined nodes re-admitted to rotation", s.m.Readmits)
	add("cluster_sim_resyncs_total", "model-version resyncs pushed by the detector", s.m.Resyncs)
	const nodeHelp = "requests served per node (fleet hot-spot view)"
	for _, n := range s.nodes {
		r.Counter(obs.Series("cluster_node_served_total", "node", strconv.Itoa(n.id)), nodeHelp).Add(n.served)
	}
	const shardHelp = "requests served per shard (placement balance view)"
	for sh, v := range s.shardServed {
		r.Counter(obs.Series("cluster_shard_served_total", "shard", strconv.Itoa(sh)), shardHelp).Add(v)
	}
	h := r.Histogram("cluster_sim_latency_seconds",
		"accepted-reply latency of simulated fleet requests (virtual time, exact quantiles)", 0)
	for _, l := range s.m.latencies {
		h.Observe(l)
	}
}
