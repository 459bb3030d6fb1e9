package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/feedback"
)

// Feedback sessions (DESIGN.md §8): a session is a stateful closed loop over
// one task set — the server holds a feedback.Controller per session, clients
// stream per-hyper-period execution observations into it, and the server
// answers either "no change" or a re-solved schedule with its fingerprint.
//
//	POST /v1/sessions               create: stated model → initial ACS
//	POST /v1/sessions/{id}/observe  feed observations → drift/re-solve verdict
//	GET  /v1/sessions/{id}          estimator and adaptation state
//
// Sessions are intentionally stateful, so they sit outside the stateless
// byte-determinism contract of submit/get/compare; their determinism contract
// is the controller's: every schedule payload (fingerprint, end-times,
// budgets, predicted energy) is a pure function of the creation body plus the
// ordered observation history, never of timing, batching, worker count or
// cache state. Session ids are allocation order ("s1", "s2", …) and are the
// one arrival-order-dependent field. Observes on one session serialise on the
// session lock; solves flow through the server's shared bounded memo, so a
// mode-switching workload that returns to a learned regime re-solves as a
// cache hit.

// sessionKnobs are a session's creation knobs: its resolved starts and
// subcap and the feedback knobs of its create body. They are configuration,
// not controller state, so a checkpoint stores them next to the controller
// snapshot and a restart rebuilds the exact feedback.Options the session
// was created with. Create, checkpoint and restore each copy them as one
// value.
type sessionKnobs struct {
	Starts      int     `json:"starts"`
	SubCap      int     `json:"subcap"`
	DriftDelta  float64 `json:"drift_delta"`
	DriftLambda float64 `json:"drift_lambda"`
	MinSamples  int     `json:"min_samples"`
	Relearn     int     `json:"relearn"`
}

// serverSession is one resident closed loop.
type serverSession struct {
	mu   sync.Mutex
	id   string
	ctrl *feedback.Controller
	sessionKnobs

	// lastAt/lastResp are the observe-idempotency window (DESIGN.md §11):
	// the stream position the last acked observe batch started at and the
	// exact response bytes it was answered with. A retry of that batch (same
	// `at`, same length) replays lastResp instead of re-folding — the door a
	// fleet client walks through when the ack was lost to a dying owner and
	// the retry lands on a replica that restored this checkpoint.
	lastAt   int64
	lastResp []byte
}

// sessionOptions rebuilds the feedback options for a session's knobs — the
// single definition both create and restore flow through, so a restored
// controller solves under byte-identical configuration.
func (s *Server) sessionOptions(k sessionKnobs) feedback.Options {
	cr := &canonicalRequest{objective: core.AverageCase, starts: k.Starts, subCap: k.SubCap}
	opts := feedback.Options{
		Runner: s.runner,
		Solver: cr.config().Solver,
		Drift: feedback.DriftConfig{
			Delta: k.DriftDelta, Lambda: k.DriftLambda, MinSamples: k.MinSamples,
		},
		Relearn: k.Relearn,
	}
	// Feed every solve-pipeline run into the feedback_resolve stage
	// histogram. Adaptation *counters* come from controller deltas around
	// ObserveChunk instead, so the initial session-create solve is timed
	// here but never counted as an adaptation.
	opts.OnResolve = func(d time.Duration) {
		s.m.observeStage("feedback_resolve", d.Seconds())
	}
	return opts
}

// sessionCheckpoint is the persisted form of one session: the creation knobs
// plus the controller's complete fold state (feedback.ControllerState).
// Checkpoints written before the estimator histogram was retired also carry
// "bins"; decoding ignores it.
type sessionCheckpoint struct {
	ID string `json:"id"`
	sessionKnobs
	Controller *feedback.ControllerState `json:"controller"`
	// LastAt/LastResp persist the observe-idempotency window, so a replica
	// restoring this checkpoint can replay the last acked batch's exact
	// bytes to a retrying client.
	LastAt   int64  `json:"last_at,omitempty"`
	LastResp []byte `json:"last_resp,omitempty"`
}

// SessionCheckpointObserved extracts the observation count from a session
// checkpoint blob without rebuilding the controller — the freshness key
// fleet replication compares when several peers hold checkpoints for the
// same session (highest observation count wins; identical counts imply
// identical state, because the controller is a deterministic fold). ok is
// false when the blob is not a parseable session checkpoint.
func SessionCheckpointObserved(blob []byte) (observed int64, ok bool) {
	var cp sessionCheckpoint
	if json.Unmarshal(blob, &cp) != nil || cp.Controller == nil {
		return 0, false
	}
	return cp.Controller.Observed, true
}

// checkpointSession atomically replaces the session's checkpoint blob.
// Callers hold sess.mu (Snapshot must be serialised with ObserveChunk).
// Failures are counted, never surfaced: a session that cannot checkpoint
// still serves — it just won't survive the next restart.
func (s *Server) checkpointSession(sess *serverSession) {
	if s.opts.Checkpoints == nil {
		return
	}
	blob, err := json.Marshal(&sessionCheckpoint{
		ID: sess.id, sessionKnobs: sess.sessionKnobs, Controller: sess.ctrl.Snapshot(),
		LastAt: sess.lastAt, LastResp: sess.lastResp,
	})
	if err == nil {
		err = s.opts.Checkpoints.PutBlob("session-"+sess.id, blob)
	}
	if err != nil {
		s.noteCheckpointErr(err)
	}
}

// RestoreSessions rebuilds every checkpointed session from the blob store —
// call once at boot, before serving. Each controller is restored through
// feedback.RestoreController (its model re-solve is a content-store hit on a
// warm restart) and resumes its observation stream exactly where the last
// checkpoint left it: the next observe answers byte-identically to what an
// uninterrupted daemon would have answered. The session-id sequence resumes
// past the highest restored id. Corrupt checkpoints are skipped and counted
// as checkpoint errors; the session limit is enforced. ctx bounds the
// restore solves.
func (s *Server) RestoreSessions(ctx context.Context) (int, error) {
	if s.opts.Checkpoints == nil {
		return 0, nil
	}
	names, err := s.opts.Checkpoints.ListBlobs()
	if err != nil {
		return 0, fmt.Errorf("server: listing checkpoints: %w", err)
	}
	restored := 0
	for _, name := range names {
		id, ok := strings.CutPrefix(name, "session-")
		if !ok {
			continue
		}
		sess, found, err := s.readCheckpoint(ctx, id, nil)
		if err != nil {
			return restored, err // canceled boot, not a bad checkpoint
		}
		if !found {
			s.m.checkpointErrs.Inc() // listed, but unreadable
		}
		if sess != nil && s.adoptSession(sess) {
			restored++
		}
	}
	return restored, nil
}

// readCheckpoint is the one reader of session checkpoints, for boot
// restore, lazy takeover and stale-owner refresh alike. It reads session
// id's blob (found reports that it could), skips a blob whose digest
// noteDamaged recorded, and decodes it once. The checkpoint must name id and
// pass the body door, canonicalizeSubmit, with its base set, starts and
// subcap, so no restore solve expands a set or a start count a create body
// could not ask for. A refresh passes its resident session, and a
// checkpoint not ahead of that session's fold is then skipped before any
// restore solve. The session is rebuilt from the creation knobs, the
// idempotency window and a controller restored through
// feedback.RestoreController. Every refusal is noted as damage, unless ctx
// ended first: then err is set and nothing is noted.
func (s *Server) readCheckpoint(ctx context.Context, id string, resident *serverSession) (sess *serverSession, found bool, err error) {
	if s.opts.Checkpoints == nil {
		return nil, false, nil
	}
	blob, ok, err := s.opts.Checkpoints.GetBlob("session-" + id)
	if err != nil || !ok {
		return nil, false, nil
	}
	digest := sha256.Sum256(blob)
	if s.knownDamaged(id, digest) {
		return nil, true, nil
	}
	var cp sessionCheckpoint
	if json.Unmarshal(blob, &cp) != nil || cp.Controller == nil || cp.ID == "" || cp.ID != id {
		s.noteDamaged(id, digest)
		return nil, true, nil
	}
	base := SubmitRequest{Tasks: cp.Controller.Base, Starts: cp.Starts, SubCap: cp.SubCap}
	if _, e := canonicalizeSubmit(&base, 0, s.opts.MaxTasks); e != nil {
		s.noteDamaged(id, digest)
		return nil, true, nil
	}
	if resident != nil && cp.Controller.Observed <= resident.ctrl.Observed() {
		return nil, true, nil // not ahead of the resident fold: no restore solve
	}
	sess = &serverSession{id: id, sessionKnobs: cp.sessionKnobs, lastAt: cp.LastAt, lastResp: cp.LastResp}
	if sess.ctrl, err = feedback.RestoreController(ctx, cp.Controller, s.sessionOptions(cp.sessionKnobs)); err != nil {
		if ctx.Err() != nil {
			return nil, true, err
		}
		s.noteDamaged(id, digest)
		return nil, true, nil
	}
	return sess, true, nil
}

// noteDamaged counts a session checkpoint that failed to restore and records
// its digest: a later read of the same blob skips it without decoding or
// counting it again (knownDamaged), while a replaced blob is decoded afresh.
func (s *Server) noteDamaged(id string, digest [sha256.Size]byte) {
	s.mu.Lock()
	s.damaged[id] = digest
	s.mu.Unlock()
	s.m.checkpointErrs.Inc()
}

// knownDamaged reports whether digest is the checkpoint of session id that
// noteDamaged last recorded.
func (s *Server) knownDamaged(id string, digest [sha256.Size]byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	known, ok := s.damaged[id]
	return ok && known == digest
}

// adoptSession makes a restored session resident and resumes the session-id
// sequence past its id. It reports false, leaving the session out, when the
// session limit is reached.
func (s *Server) adoptSession(sess *serverSession) bool {
	var seq int64
	fmt.Sscanf(sess.id, "s%d", &seq)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.damaged, sess.id) // its checkpoint restored
	if len(s.sessions) >= s.sessionCap {
		return false
	}
	s.sessions[sess.id] = sess
	if seq > s.sessionSeq {
		s.sessionSeq = seq
	}
	s.m.restored.Inc()
	return true
}

// SessionRequest is the POST /v1/sessions body: a submit body plus the
// feedback knobs (zero values select the controller defaults).
type SessionRequest struct {
	SubmitRequest
	// SessionID, when set, names the session instead of the server's
	// allocation-order default ("s1", "s2", …, skipping any id a resident
	// session already holds): 1–64 characters of
	// [A-Za-z0-9._-]. The fleet router injects one so a session's identity —
	// and therefore its ring position — is fixed before any peer sees the
	// request. A create never replaces a session that exists under its id,
	// resident or checkpointed: the same creation (the same canonical task
	// set and knobs) answers 200 with the create's own bytes and leaves the
	// session as it is, and any other creation answers 409. Creation is a
	// pure function of the body, so a lost-ack retry answers the same bytes
	// on every peer, the owner or a replica.
	SessionID string `json:"session_id,omitempty"`
	// DriftDelta and DriftLambda parameterise the Page–Hinkley detector in
	// standardized units; MinSamples is its warm-up length.
	DriftDelta  float64 `json:"drift_delta,omitempty"`
	DriftLambda float64 `json:"drift_lambda,omitempty"`
	MinSamples  int     `json:"min_samples,omitempty"`
	// Relearn is the fresh-observation window (hyper-periods) collected
	// after drift fires before re-solving.
	Relearn int `json:"relearn,omitempty"`
}

// SessionSchedule is the schedule payload a session answers with: the two
// vectors the online phase consumes plus the solver's expected energy.
type SessionSchedule struct {
	Fingerprint     string    `json:"fingerprint"`
	PredictedEnergy float64   `json:"predicted_energy"`
	EndMs           []float64 `json:"end_ms"`
	WCWorkCycles    []float64 `json:"wcwork_cycles"`
}

// SessionResponse is the create response.
type SessionResponse struct {
	SessionID string `json:"session_id"`
	// Instances is the observation width: every observe row must carry this
	// many per-instance cycle counts, in the plan's instance order.
	Instances int             `json:"instances"`
	Tasks     int             `json:"tasks"`
	State     string          `json:"state"`
	Schedule  SessionSchedule `json:"schedule"`
}

// ObserveRequest is the POST /v1/sessions/{id}/observe body: consecutive
// hyper-periods of per-instance observed execution cycles.
type ObserveRequest struct {
	Hyperperiods [][]float64 `json:"hyperperiods"`
	// At, when set, asserts the stream position this batch starts at (the
	// number of hyper-periods the client has had acknowledged). It makes
	// observes idempotent across failover: a position matching the session
	// applies normally; an exact retry of the last acked batch replays its
	// stored response bytes; a position *ahead* of this instance's fold
	// means the instance is stale (a revived owner) and triggers a refresh
	// from the freshest replicated checkpoint before re-evaluating; anything
	// else is a deterministic 409. Clients retrying through the fleet MUST
	// resend the identical batch with the identical `at`.
	At *int64 `json:"at,omitempty"`
}

// ObserveResponse reports what the batch caused. Schedule is present only
// when a re-solve completed ("no change" answers omit it).
type ObserveResponse struct {
	SessionID string `json:"session_id"`
	Observed  int64  `json:"observed_hyperperiods"`
	Drift     bool   `json:"drift"`
	Resolved  bool   `json:"resolved"`
	State     string `json:"state"`
	// ResolvedHyperperiod is the observation index at which the re-solve
	// completed (present when Resolved): the adapted schedule is available
	// from this point — apply it at your executor's next hyper-period
	// boundary.
	ResolvedHyperperiod *int64           `json:"resolved_hyperperiod,omitempty"`
	Schedule            *SessionSchedule `json:"schedule,omitempty"`
}

// TaskEstimate is one task's learned execution-cycle distribution.
type TaskEstimate struct {
	Task  string  `json:"task"`
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Std   float64 `json:"std"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	// ModelACEC is the ACEC of the model the current schedule was solved
	// against (after adaptations it tracks the learned mean).
	ModelACEC float64 `json:"model_acec"`
}

// SessionStatusResponse is the GET /v1/sessions/{id} body.
type SessionStatusResponse struct {
	SessionID           string          `json:"session_id"`
	State               string          `json:"state"`
	Observed            int64           `json:"observed_hyperperiods"`
	Resolves            int64           `json:"resolves"`
	Drifts              int64           `json:"drifts"`
	ResolveHyperperiods []int64         `json:"resolve_hyperperiods"`
	Estimates           []TaskEstimate  `json:"estimates"`
	Schedule            SessionSchedule `json:"schedule"`
}

// sessionSchedule snapshots the controller's current schedule payload.
// Callers hold the session lock.
func sessionSchedule(ctrl *feedback.Controller) SessionSchedule {
	s := ctrl.Schedule()
	return SessionSchedule{
		Fingerprint:     ctrl.Fingerprint(),
		PredictedEnergy: s.Energy,
		EndMs:           s.End,
		WCWorkCycles:    s.WCWork,
	}
}

// sessionLimitError is the create-path 503: session slots free up on a
// human timescale (sessions live for the daemon's lifetime), so its
// Retry-After is longer than the overload default.
func (s *Server) sessionLimitError() *apiError {
	e := errorf(http.StatusServiceUnavailable, "session limit (%d) reached", s.sessionCap)
	e.retryAfter = 5
	return e
}

func (s *Server) handleSessionCreate(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if e := decode(r, &req); e != nil {
		writeResult(w, e)
		return
	}
	cr, e := canonicalizeSubmit(&req.SubmitRequest, s.opts.Starts, s.opts.MaxTasks)
	if e != nil {
		writeResult(w, e)
		return
	}
	if req.Objective == "wcs" {
		writeResult(w, errorf(http.StatusUnprocessableEntity,
			"admission: sessions adapt the average-case model; the objective is always acs"))
		return
	}
	// The feedback loop observes and re-solves one processor's plan;
	// partitioned sets would need per-core estimator state that does not
	// exist yet. Reject rather than silently adapting the single-core form.
	if cr.cores > 1 {
		writeResult(w, errorf(http.StatusUnprocessableEntity,
			"admission: sessions are single-core; omit the cores field (got %d)", cr.cores))
		return
	}
	var existing *serverSession
	if req.SessionID != "" {
		if !validSessionID(req.SessionID) {
			writeResult(w, errorf(http.StatusUnprocessableEntity,
				"admission: session_id must be 1-64 characters of [A-Za-z0-9._-]"))
			return
		}
		// A session that is not resident may still exist as a checkpoint,
		// replicated from a dead owner: adopt it as a takeover would, so the
		// create below meets it instead of overwriting its checkpoint.
		if existing, e = s.sessionOrRestore(ctx, req.SessionID); e != nil {
			writeResult(w, e)
			return
		}
	}
	s.mu.Lock()
	full := len(s.sessions) >= s.sessionCap
	s.mu.Unlock()
	if full && existing == nil {
		writeResult(w, s.sessionLimitError())
		return
	}
	sess := &serverSession{sessionKnobs: sessionKnobs{
		Starts: cr.starts, SubCap: cr.subCap,
		DriftDelta: req.DriftDelta, DriftLambda: req.DriftLambda,
		MinSamples: req.MinSamples, Relearn: req.Relearn,
	}}
	ctrl, err := feedback.NewController(ctx, cr.set, s.sessionOptions(sess.sessionKnobs))
	if err != nil {
		writeResult(w, solveError("session synthesis", err))
		return
	}
	sess.ctrl = ctrl
	// Snapshot every response field *before* the session becomes reachable:
	// ids are predictable, so a racing observe could otherwise mutate the
	// controller while this handler reads it un-locked.
	resp := &SessionResponse{
		Instances: len(ctrl.TaskOf()),
		Tasks:     cr.set.N(),
		State:     ctrl.State().String(),
		Schedule:  sessionSchedule(ctrl),
	}
	s.mu.Lock()
	if cur := s.sessions[req.SessionID]; req.SessionID != "" && cur != nil {
		s.mu.Unlock()
		// The id is taken: answer the create's own bytes if it is the
		// session's own creation, and never replace the session.
		cur.mu.Lock()
		same := cur.sessionKnobs == sess.sessionKnobs && slices.Equal(cur.ctrl.Base().Tasks, cr.set.Tasks)
		cur.mu.Unlock()
		if !same {
			writeResult(w, errorf(http.StatusConflict, "session %q already exists", req.SessionID))
			return
		}
		resp.SessionID = cur.id
		writeJSON(w, http.StatusOK, resp)
		return
	}
	// Re-check the limit at insertion: the pre-solve check is only a
	// fast-path reject, and concurrent creates could otherwise race past it
	// (the solve above runs unlocked). A loser here wasted one solve —
	// which the memo retains — but the bound holds.
	if len(s.sessions) >= s.sessionCap {
		s.mu.Unlock()
		writeResult(w, s.sessionLimitError())
		return
	}
	if req.SessionID != "" {
		sess.id = req.SessionID
	} else {
		// Skip ids a caller already named: allocation never replaces a
		// resident session.
		for sess.id == "" || s.sessions[sess.id] != nil {
			s.sessionSeq++
			sess.id = fmt.Sprintf("s%d", s.sessionSeq)
		}
	}
	s.sessions[sess.id] = sess
	delete(s.damaged, sess.id) // the checkpoint below replaces a damaged one
	s.mu.Unlock()
	resp.SessionID = sess.id
	// First checkpoint: the session survives a restart even before its first
	// observe. Under the session lock — the session is reachable now, so an
	// early observe could otherwise snapshot mid-fold.
	sess.mu.Lock()
	s.checkpointSession(sess)
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) session(id string) *serverSession {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// validSessionID reports whether id is acceptable as a caller-supplied
// session name: 1–64 characters of [A-Za-z0-9._-]. Server-allocated "sN"
// ids trivially satisfy it.
func validSessionID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// sessionOrRestore resolves a session id to its resident session, lazily
// rebuilding it from the checkpoint store when absent — the fleet takeover
// path (DESIGN.md §11): a replica that never hosted this session receives
// its routed traffic after the owner died, restores the controller from the
// freshest replicated checkpoint, and continues the observation stream
// byte-identically. restoreMu makes racing requests pay for one restore
// solve, not one each. A checkpoint that cannot be restored is counted once
// (readCheckpoint): every request still reads the blob, since a replica may
// have replaced it. (nil, nil) means no such session anywhere — the caller
// answers 404.
func (s *Server) sessionOrRestore(ctx context.Context, id string) (*serverSession, *apiError) {
	if sess := s.session(id); sess != nil {
		return sess, nil
	}
	if s.opts.Checkpoints == nil || !validSessionID(id) {
		return nil, nil
	}
	s.restoreMu.Lock()
	defer s.restoreMu.Unlock()
	if sess := s.session(id); sess != nil { // raced: another request restored it
		return sess, nil
	}
	sess, _, err := s.readCheckpoint(ctx, id, nil)
	switch {
	case err != nil:
		return nil, errorf(http.StatusServiceUnavailable, "session restore canceled")
	case sess == nil:
		return nil, nil
	case !s.adoptSession(sess):
		return nil, s.sessionLimitError()
	}
	return sess, nil
}

// refreshSessionLocked re-reads the session's checkpoint and, when it is
// ahead of the resident fold, swaps in a controller restored from it.
// Callers hold sess.mu. In a fleet, Checkpoints is the replication layer
// whose reads return the freshest replica's checkpoint — this is how a
// revived owner heals itself when a client's `at` proves its resident state
// stale (its replicas advanced the session while it was down). Failures
// leave the session untouched; the caller's position check then answers a
// deterministic 409 and the client retries elsewhere. A damaged checkpoint
// is counted once, as boot restore and takeover count it (readCheckpoint).
func (s *Server) refreshSessionLocked(ctx context.Context, sess *serverSession) {
	if fresh, _, _ := s.readCheckpoint(ctx, sess.id, sess); fresh != nil {
		sess.ctrl, sess.lastAt, sess.lastResp = fresh.ctrl, fresh.lastAt, fresh.lastResp
		s.m.restored.Inc()
	}
}

func (s *Server) handleSessionObserve(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	sess, e := s.sessionOrRestore(ctx, r.PathValue("id"))
	if e != nil {
		writeResult(w, e)
		return
	}
	if sess == nil {
		writeResult(w, errorf(http.StatusNotFound, "unknown session %q", r.PathValue("id")))
		return
	}
	var req ObserveRequest
	if e := decodeObserve(r, &req); e != nil {
		writeResult(w, e)
		return
	}
	if len(req.Hyperperiods) == 0 {
		writeResult(w, errorf(http.StatusUnprocessableEntity, "observe: no hyper-periods"))
		return
	}
	if len(req.Hyperperiods) > s.batchCap {
		writeResult(w, errorf(http.StatusUnprocessableEntity,
			"observe: %d hyper-periods exceeds the batch limit of %d",
			len(req.Hyperperiods), s.batchCap))
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if req.At != nil {
		at, n := *req.At, int64(len(req.Hyperperiods))
		if at > sess.ctrl.Observed() {
			// The resident fold is behind the client's acked stream: this
			// instance is stale (a revived owner). Catch up from the
			// freshest replicated checkpoint, then re-evaluate the position.
			s.refreshSessionLocked(ctx, sess)
		}
		if at == sess.lastAt && sess.lastResp != nil && at+n == sess.ctrl.Observed() {
			// Exact retry of the last acked batch (its ack was lost in
			// flight): replay the stored response bytes instead of
			// re-folding — byte-identical to the lost original.
			writeBody(w, http.StatusOK, sess.lastResp)
			return
		}
		if at != sess.ctrl.Observed() {
			writeResult(w, errorf(http.StatusConflict,
				"observe: batch asserts position %d but the session is at %d",
				at, sess.ctrl.Observed()))
			return
		}
	}
	prev := sess.ctrl.Observed()
	prevDrifts, prevResolves := sess.ctrl.DriftsFired(), sess.ctrl.Resolves()
	d, err := sess.ctrl.ObserveChunk(ctx, req.Hyperperiods)
	if err != nil {
		writeResult(w, solveError("observe", err))
		return
	}
	// Controller deltas, not raw totals: a restored controller carries its
	// lifetime counts, so only what *this* batch caused is added here.
	s.m.driftsFired.Add(sess.ctrl.DriftsFired() - prevDrifts)
	s.m.feedbackSolves.Add(sess.ctrl.Resolves() - prevResolves)
	if s.opts.ObserveSink != nil {
		s.opts.ObserveSink(sess.id, sess.ctrl.Model(), req.Hyperperiods)
	}
	resp := &ObserveResponse{
		SessionID: sess.id,
		Observed:  sess.ctrl.Observed(),
		Drift:     d.Drift,
		Resolved:  d.Resolved,
		State:     d.State.String(),
	}
	if d.Resolved {
		at := d.ResolvedHyperperiod
		resp.ResolvedHyperperiod = &at
		sched := sessionSchedule(sess.ctrl)
		resp.Schedule = &sched
	}
	buf, err := json.Marshal(resp)
	if err != nil {
		writeResult(w, errorf(http.StatusInternalServerError, "encoding failure"))
		return
	}
	buf = append(buf, '\n')
	// Record the idempotency window and checkpoint the advanced fold state
	// before replying: once the client has seen this response, a
	// crash-and-restore resumes at or after it — the stream never rewinds
	// past an acknowledged observation, and a retry of exactly this batch
	// replays exactly these bytes.
	sess.lastAt = prev
	sess.lastResp = buf
	s.checkpointSession(sess)
	writeBody(w, http.StatusOK, buf)
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, e := s.requestContext(r)
	if e != nil {
		writeResult(w, e)
		return
	}
	defer cancel()
	sess, e := s.sessionOrRestore(ctx, r.PathValue("id"))
	if e != nil {
		writeResult(w, e)
		return
	}
	if sess == nil {
		writeResult(w, errorf(http.StatusNotFound, "unknown session %q", r.PathValue("id")))
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	ctrl := sess.ctrl
	model := ctrl.Model()
	resp := &SessionStatusResponse{
		SessionID:           sess.id,
		State:               ctrl.State().String(),
		Observed:            ctrl.Observed(),
		Resolves:            ctrl.Resolves(),
		Drifts:              ctrl.DriftsFired(),
		ResolveHyperperiods: ctrl.ResolveHyperperiods(),
		Schedule:            sessionSchedule(ctrl),
	}
	for i := range model.Tasks {
		e := ctrl.Lifetime().Task(i)
		resp.Estimates = append(resp.Estimates, TaskEstimate{
			Task:      model.Tasks[i].Name,
			Count:     e.Count(),
			Mean:      e.Mean(),
			Std:       e.Std(),
			Min:       e.Min(),
			Max:       e.Max(),
			ModelACEC: model.Tasks[i].ACEC,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}
