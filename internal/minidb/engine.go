package minidb

import (
	"github.com/seqfuzz/lego/internal/chaos"
	"github.com/seqfuzz/lego/internal/coverage"
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// Limits bound resource usage so fuzzing stays fast (the paper's C3:
// pathological seeds must not stall the fuzzer).
type Limits struct {
	MaxRowsPerTable int
	MaxResultRows   int
	MaxTriggerDepth int
	MaxRewriteDepth int
	// MaxTriggerFires caps total trigger invocations per top-level
	// statement: cascades are depth-capped AND breadth-capped, so an
	// UPDATE over many rows with self-updating triggers cannot stall the
	// fuzzer (challenge C3).
	MaxTriggerFires int
	// MaxStepsPerStmt is the deterministic watchdog: every top-level
	// statement may charge at most this many evaluation steps (expression
	// evaluations and row visits) before aborting with a SQL error.
	// Counting steps instead of wall-clock time keeps campaigns
	// reproducible — the same statement trips the watchdog at the same
	// point on any machine (extends challenge C3).
	MaxStepsPerStmt int
}

// DefaultLimits are tuned for fuzzing throughput.
func DefaultLimits() Limits {
	return Limits{
		MaxRowsPerTable: 128,
		MaxResultRows:   512,
		MaxTriggerDepth: 4,
		MaxRewriteDepth: 8,
		MaxTriggerFires: 64,
		MaxStepsPerStmt: 1 << 20,
	}
}

// Config configures an Engine.
type Config struct {
	Dialect sqlt.Dialect
	Limits  Limits
	// EnableHazards arms the seeded bug corpus (bugs.go). Disarmed engines
	// are used by tests that exercise pure SQL semantics.
	EnableHazards bool
	// FaultRate arms the deterministic fault injector: before and after
	// dispatch, each top-level statement panics with a non-BugReport value
	// with this probability (fault.go). It models *organic* engine defects
	// — the panics the harness must contain without dying — and exists to
	// prove crash containment, not to find bugs. Zero or negative disables
	// injection.
	FaultRate float64
	// FaultSeed selects the fault schedule (default 1): each decision is
	// drawn by internal/chaos from (FaultSeed, exec index, statement index,
	// site), so equal seeds see equal faults. A sharded campaign gives
	// shard i the seed Seed+i.
	FaultSeed int64
}

// session holds connection-scoped state.
type session struct {
	vars      map[string]Value
	globals   map[string]Value
	role      string
	listening map[string]bool
	notices   []string
	cursors   map[string]*cursor
	prepared  map[string]sqlast.Statement
	isolation string
	curDB     string
}

type cursor struct {
	name string
	rows [][]Value
	pos  int
}

func newSession() *session {
	return &session{
		vars:      map[string]Value{},
		globals:   map[string]Value{},
		listening: map[string]bool{},
		cursors:   map[string]*cursor{},
		prepared:  map[string]sqlast.Statement{},
		isolation: "READ COMMITTED",
		curDB:     "main",
	}
}

// reset empties the session in place, leaving it equal to newSession()'s
// result while its maps keep their storage.
func (s *session) reset() {
	clear(s.vars)
	clear(s.globals)
	clear(s.listening)
	clear(s.cursors)
	clear(s.prepared)
	s.role = ""
	s.notices = nil
	s.isolation = "READ COMMITTED"
	s.curDB = "main"
}

// Engine executes SQL test cases, each against an empty in-memory database.
// An Engine is not safe for concurrent use; each fuzzing worker owns one.
type Engine struct {
	cfg     Config
	cat     *Catalog
	sess    *session
	tracer  *coverage.Tracer
	limits  Limits
	hazards *hazardIndex // nil when disarmed
	faults  *faultInjector

	// txnStack holds catalog snapshots: index 0 is the BEGIN snapshot,
	// later entries are savepoints (name in spNames).
	txnStack []*Catalog
	spNames  []string

	// execution bookkeeping
	typeWindow   []sqlt.Type // recent executed statement types (hazard matching)
	triggerDepth int
	triggerFires int // invocations within the current top-level statement
	rewriteDepth int
	stepsUsed    int // watchdog charge within the current top-level statement
	stmtIndex    int
	cteFrames    []map[string]*relation

	// rewrite-component flags for the case-study bug path
	inWCTERewrite     bool
	wcteNotifyRewrite bool

	// state flags observed by hazard conditions
	rowsInserted  int
	lastInsertTab string

	// outcome scratch buffers, reused across RunTestCase calls: the
	// returned Outcome slices into these, so they are valid only until
	// the next RunTestCase on the same engine (see Outcome docs).
	resBuf []*Result
	errBuf []error

	// scratch holds the evaluation sites' free scratch scopes (rowEval),
	// stages INSERT's free VALUES buffers (takeStage), idxBufs UPDATE's
	// and DELETE's free row index buffers (takeIdxs).
	scratch []*evalScratch
	stages  []*insertStage
	idxBufs [][]int

	// inVals is evalIn's candidate stack: an IN pushes its candidates
	// above those of the INs it is nested in and pops them on return.
	inVals []Value

	// results is the slab statement Results are handed out from (result);
	// RunTestCase reuses it from the start, under Outcome.Results'
	// lifetime.
	results slab[Result]

	// rels and qualBuf hold the current top-level statement's relation
	// headers and qualifier lists (newRelation, quals); ExecStmt reuses
	// them from the start for the next statement.
	rels     slab[relation]
	qualBuf  []string
	qualNext int

	// pool holds the test case's tables, snapshot catalogs and rows, which
	// reset takes back (pool.go).
	pool pools
}

// New creates an engine for the given configuration.
func New(cfg Config) *Engine {
	if cfg.Limits == (Limits{}) {
		cfg.Limits = DefaultLimits()
	}
	e := &Engine{
		cfg:    cfg,
		cat:    NewCatalog(),
		sess:   newSession(),
		limits: cfg.Limits,
		tracer: coverage.NewTracer(),
	}
	if cfg.EnableHazards {
		e.hazards = hazardIndexes[cfg.Dialect]
	}
	if cfg.FaultRate > 0 {
		e.faults = &faultInjector{plane: chaos.New(cfg.FaultRate, cfg.FaultSeed)}
	}
	return e
}

// Dialect returns the engine's dialect profile.
func (e *Engine) Dialect() sqlt.Dialect { return e.cfg.Dialect }

// Tracer exposes the engine's coverage tracer for feedback harvesting.
func (e *Engine) Tracer() *coverage.Tracer { return e.tracer }

// reset empties all database and session state for the next test case.
// The catalog and session are cleared in place rather than rebuilt: after
// ROLLBACK the current catalog is a former transaction snapshot, and the
// snapshots still on the stack are dropped here, so no other reference to
// the cleared maps survives. The pools then take back every table, catalog
// and row the finished test case took. TestResetMatchesNewEngine pins the
// result to a new engine's state.
func (e *Engine) reset() {
	e.cat.reset()
	e.sess.reset()
	e.txnStack = nil
	e.spNames = nil
	e.resetPools()
	e.typeWindow = e.typeWindow[:0]
	e.triggerDepth = 0
	e.rewriteDepth = 0
	e.stmtIndex = 0
	e.cteFrames = nil
	e.inWCTERewrite = false
	e.wcteNotifyRewrite = false
	e.rowsInserted = 0
	e.lastInsertTab = ""
}

// hit reports that execution reached probe site s.
//
//lego:hotpath
func (e *Engine) hit(s coverage.Site) { e.tracer.Hit(s) }

// Result is the output of one statement. Results are engine-owned, and
// inside RunTestCase so are their rows: one returned by ExecStmt stays
// valid until the next RunTestCase on the same engine.
type Result struct {
	Cols     []string
	Rows     [][]Value
	Affected int
	Msg      string
}

// slab hands out engine-owned objects until its owner resets next to 0.
// A full slab is replaced by a new one twice its length, at most slabMax:
// objects handed out before stay valid in the old one, the next reset
// reuses the larger one, and an engine that is never reset (the REPL)
// still lets old slabs go.
type slab[T any] struct {
	items []T
	next  int
}

const slabMax = 1024

//lego:hotpath
func (s *slab[T]) take() *T {
	if s.next == len(s.items) {
		s.items, s.next = make([]T, min(max(16, 2*len(s.items)), slabMax)), 0
	}
	s.next++
	return &s.items[s.next-1]
}

// result hands out a copy of r from the engine's result slab.
func (e *Engine) result(r Result) *Result {
	p := e.results.take()
	*p = r
	return p
}

// newRelation hands out a relation header from the statement's scratch.
func (e *Engine) newRelation(cols, qual []string, rows [][]Value) *relation {
	r := e.rels.take()
	*r = relation{cols: cols, qual: qual, rows: rows}
	return r
}

// quals hands out a qualifier list of n entries, each q, from the
// statement's scratch.
//
//lego:hotpath
func (e *Engine) quals(n int, q string) []string {
	if len(e.qualBuf)-e.qualNext < n {
		e.qualBuf, e.qualNext = make([]string, max(64, 2*len(e.qualBuf), n)), 0
	}
	out := e.qualBuf[e.qualNext : e.qualNext+n : e.qualNext+n]
	e.qualNext += n
	for i := range out {
		out[i] = q
	}
	return out
}

// Outcome summarizes one test-case execution.
type Outcome struct {
	// Crash is non-nil when a seeded hazard (or organic engine bug) fired.
	Crash *BugReport
	// Executed is the number of statements attempted.
	Executed int
	// Errors is the number of statements that returned a SQL error.
	Errors int
	// Results holds per-statement results (nil entry on error/crash).
	// The slice aliases an engine-owned scratch buffer, and the *Result
	// objects it points to and their rows are engine-owned too: all are
	// valid only until the next RunTestCase call on the same engine.
	// Callers that need results across runs must render them or copy
	// them deeply; a copy of the pointers keeps nothing.
	//
	//lego:borrowed valid until the next RunTestCase on the same engine
	Results []*Result
	// Errs holds per-statement errors (nil entry on success). Same
	// lifetime as Results: valid until the next RunTestCase call.
	//
	//lego:borrowed valid until the next RunTestCase on the same engine
	Errs []error
}

// RunTestCaseAt is RunTestCase for the exec-th test case of a campaign: the
// index keys the armed fault injector's decisions, so each execution draws
// its own faults. The harness passes its execution count.
func (e *Engine) RunTestCaseAt(tc sqlast.TestCase, exec int) Outcome {
	if e.faults != nil {
		e.faults.exec = exec
	}
	return e.RunTestCase(tc)
}

// RunTestCase executes the test case against a fresh database, recording
// coverage into the engine's tracer (which the caller is expected to have
// Reset). Seeded-bug panics are captured into the outcome; any other panic
// is re-raised, since it would be a genuine engine defect. Armed faults are
// keyed by the exec index of the last RunTestCaseAt (0 on a new engine).
func (e *Engine) RunTestCase(tc sqlast.TestCase) (out Outcome) {
	e.reset()
	e.results.next = 0
	if cap(e.resBuf) < len(tc) {
		e.resBuf = make([]*Result, len(tc))
		e.errBuf = make([]error, len(tc))
	}
	out.Results = e.resBuf[:len(tc)]
	out.Errs = e.errBuf[:len(tc)]
	for i := range out.Results {
		out.Results[i] = nil
		out.Errs[i] = nil
	}
	e.pool.on = true
	defer func() {
		e.pool.on = false
		if r := recover(); r != nil {
			if br, ok := r.(*BugReport); ok {
				out.Crash = br
				return
			}
			panic(r)
		}
	}()
	for i, s := range tc {
		e.stmtIndex = i
		out.Executed++
		res, err := e.ExecStmt(s)
		if err != nil {
			out.Errors++
			out.Errs[i] = err
			continue
		}
		out.Results[i] = res
	}
	return out
}

// ExecStmt executes one statement against the current database state.
// Statement-level SQL errors are returned; seeded-bug crashes panic with a
// *BugReport (RunTestCase catches them).
func (e *Engine) ExecStmt(s sqlast.Statement) (*Result, error) {
	e.hit(pDispatch)
	t := s.Type()
	if !e.cfg.Dialect.Supports(t) {
		e.hit(pDialectReject)
		return nil, errValue("%s: unsupported statement type %s", e.cfg.Dialect, t)
	}
	switch t.Category() {
	case sqlt.CatDDL:
		e.hit(pParseDDL)
	case sqlt.CatDML:
		e.hit(pParseDML)
	case sqlt.CatDQL:
		e.hit(pParseDQL)
	case sqlt.CatDCL:
		e.hit(pParseDCL)
	case sqlt.CatTCL:
		e.hit(pParseTCL)
	default:
		e.hit(pParseSession)
	}

	e.triggerFires = 0
	e.stepsUsed = 0
	e.rels.next, e.qualNext = 0, 0
	if e.faults != nil {
		e.faults.beforeDispatch(e.stmtIndex)
	}
	res, err := e.dispatch(s)
	if e.faults != nil {
		e.faults.afterDispatch(e.stmtIndex)
	}

	// The type window records *attempted* statements: real DBMS crashes
	// often fire on error paths too.
	e.typeWindow = append(e.typeWindow, t)
	if len(e.typeWindow) > 8 {
		e.typeWindow = e.typeWindow[len(e.typeWindow)-8:]
	}
	if err != nil {
		e.hit(pStmtError)
	} else {
		e.hit(pStmtOK)
	}
	e.checkHazards(t, err)
	return res, err
}

func (e *Engine) dispatch(s sqlast.Statement) (*Result, error) {
	//lego:exhaustive Statement
	switch st := s.(type) {
	// DDL
	case *sqlast.CreateTableStmt:
		return e.execCreateTable(st)
	case *sqlast.CreateViewStmt:
		return e.execCreateView(st)
	case *sqlast.CreateIndexStmt:
		return e.execCreateIndex(st)
	case *sqlast.CreateTriggerStmt:
		return e.execCreateTrigger(st)
	case *sqlast.CreateSequenceStmt:
		return e.execCreateSequence(st)
	case *sqlast.CreateSchemaStmt:
		return e.execCreateSchema(st)
	case *sqlast.CreateFunctionStmt:
		return e.execCreateFunction(st)
	case *sqlast.CreateProcedureStmt:
		return e.execCreateProcedure(st)
	case *sqlast.CreateRuleStmt:
		return e.execCreateRule(st)
	case *sqlast.CreateDomainStmt:
		return e.execCreateDomain(st)
	case *sqlast.CreateTypeStmt:
		return e.execCreateType(st)
	case *sqlast.CreateExtensionStmt:
		return e.execCreateExtension(st)
	case *sqlast.CreateRoleStmt:
		return e.execCreateRole(st)
	case *sqlast.CreateDatabaseStmt:
		return e.execCreateDatabase(st)
	case *sqlast.AlterTableStmt:
		return e.execAlterTable(st)
	case *sqlast.AlterSimpleStmt:
		return e.execAlterSimple(st)
	case *sqlast.AlterSystemStmt:
		return e.execAlterSystem(st)
	case *sqlast.DropStmt:
		return e.execDrop(st)
	case *sqlast.RenameTableStmt:
		return e.execRenameTable(st)
	case *sqlast.TruncateStmt:
		return e.execTruncate(st)
	case *sqlast.CommentOnStmt:
		return e.execCommentOn(st)
	case *sqlast.ReindexStmt:
		return e.execReindex(st)
	case *sqlast.RefreshMatViewStmt:
		return e.execRefreshMatView(st)

	// DML
	case *sqlast.InsertStmt:
		return e.execInsert(st)
	case *sqlast.UpdateStmt:
		return e.execUpdate(st)
	case *sqlast.DeleteStmt:
		return e.execDelete(st)
	case *sqlast.MergeStmt:
		return e.execMerge(st)
	case *sqlast.CopyStmt:
		return e.execCopy(st)
	case *sqlast.LoadDataStmt:
		return e.execLoadData(st)
	case *sqlast.CallStmt:
		return e.execCall(st)
	case *sqlast.DoStmt:
		return e.execDo(st)

	// DQL
	case *sqlast.SelectStmt:
		return e.execSelectTop(st)
	case *sqlast.TableStmtNode:
		return e.execTableStmt(st)
	case *sqlast.ValuesStmtNode:
		return e.execValuesStmt(st)
	case *sqlast.WithStmt:
		return e.execWith(st)
	case *sqlast.ExplainStmt:
		return e.execExplain(st)
	case *sqlast.ShowStmt:
		return e.execShow(st)
	case *sqlast.DescribeStmt:
		return e.execDescribe(st)

	// DCL
	case *sqlast.GrantStmt:
		return e.execGrant(st)
	case *sqlast.SetRoleStmt:
		return e.execSetRole(st)

	// TCL
	case *sqlast.TxnStmt:
		return e.execTxn(st)
	case *sqlast.SetTransactionStmt:
		return e.execSetTransaction(st)
	case *sqlast.LockTableStmt:
		return e.execLockTable(st)

	// session
	case *sqlast.SetVarStmt:
		return e.execSetVar(st)
	case *sqlast.ResetVarStmt:
		return e.execResetVar(st)
	case *sqlast.PragmaStmt:
		return e.execPragma(st)
	case *sqlast.UseStmt:
		return e.execUse(st)
	case *sqlast.AnalyzeStmt:
		return e.execAnalyze(st)
	case *sqlast.VacuumStmt:
		return e.execVacuum(st)
	case *sqlast.MaintenanceStmt:
		return e.execMaintenance(st)
	case *sqlast.FlushStmt:
		return e.execFlush(st)
	case *sqlast.CheckpointStmt:
		return e.execCheckpoint(st)
	case *sqlast.DiscardStmt:
		return e.execDiscard(st)
	case *sqlast.PrepareStmt:
		return e.execPrepare(st)
	case *sqlast.ExecuteStmt:
		return e.execExecute(st)
	case *sqlast.DeallocateStmt:
		return e.execDeallocate(st)
	case *sqlast.DeclareCursorStmt:
		return e.execDeclareCursor(st)
	case *sqlast.FetchStmt:
		return e.execFetch(st)
	case *sqlast.CloseCursorStmt:
		return e.execCloseCursor(st)
	case *sqlast.ListenStmt:
		return e.execListen(st)
	case *sqlast.NotifyStmt:
		return e.execNotify(st)
	case *sqlast.UnlistenStmt:
		return e.execUnlisten(st)
	case *sqlast.ClusterStmt:
		return e.execCluster(st)

	default:
		return nil, errValue("unimplemented statement %T", s)
	}
}

// chargeStep charges one unit of evaluation work against the watchdog
// budget. Expression evaluation and per-row processing call it on their hot
// paths; once the per-statement budget is exhausted every further charge
// returns a SQL error, which unwinds the statement like any other execution
// error. A MaxStepsPerStmt <= 0 disables the watchdog.
func (e *Engine) chargeStep() error {
	if e.limits.MaxStepsPerStmt <= 0 {
		return nil
	}
	e.stepsUsed++
	if e.stepsUsed > e.limits.MaxStepsPerStmt {
		e.hit(pWatchdogTrip)
		return errValue("statement exceeded %d evaluation steps (watchdog)", e.limits.MaxStepsPerStmt)
	}
	return nil
}

// StmtProgress reports how many statements of the current (or last) test
// case have been entered, including one that panicked mid-execution. The
// harness uses it to account statements faithfully when containing an
// organic engine panic.
func (e *Engine) StmtProgress() int { return e.stmtIndex + 1 }

// lookTable resolves a table name, returning a SQL error when missing.
func (e *Engine) lookTable(name string) (*Table, error) {
	if t, ok := e.cat.Tables[name]; ok {
		return t, nil
	}
	return nil, errValue("relation %q does not exist", name)
}

// checkPriv verifies the current role may perform priv on table. The default
// superuser (empty role) may do anything.
func (e *Engine) checkPriv(table, priv string) error {
	if e.sess.role == "" {
		return nil
	}
	e.hit(pAuthCheck)
	r, ok := e.cat.Roles[e.sess.role]
	if !ok {
		e.hit(pAuthDenied)
		return errValue("role %q does not exist", e.sess.role)
	}
	if r.Privs[table]["ALL"] || r.Privs[table][priv] {
		return nil
	}
	e.hit(pAuthDenied)
	return errValue("permission denied for %q on %q", priv, table)
}

// inTxn reports whether an explicit transaction is open.
func (e *Engine) inTxn() bool { return len(e.txnStack) > 0 }

// TypeWindow exposes the recent statement-type window (used by tests and by
// the hazard engine).
func (e *Engine) TypeWindow() []sqlt.Type { return e.typeWindow }

// PlanStats held the counters of the compiled plan cache, which is gone:
// the interpreter is the only evaluator, so every PlanStats value is zero.
// It remains only for the campaign benchmark's plan_hit_rate and
// plan_compiles_per_kstmt metrics, and the benchmark change that retires
// those metrics deletes it.
type PlanStats struct {
	Hits, Misses, Compiles uint64
}

// Add accumulates o into s; both are always zero.
func (s *PlanStats) Add(o PlanStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Compiles += o.Compiles
}
