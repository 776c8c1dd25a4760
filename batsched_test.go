package batsched_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"batsched"
)

// TestPublicQuickstart exercises the README quick-start path end to end
// through the public API only.
func TestPublicQuickstart(t *testing.T) {
	l, err := batsched.PaperLoad("ILs alt", 120)
	if err != nil {
		t.Fatal(err)
	}
	p, err := batsched.NewProblem(batsched.Bank(batsched.B1(), 2), l)
	if err != nil {
		t.Fatal(err)
	}
	best, err := p.PolicyLifetime(batsched.BestAvailable())
	if err != nil {
		t.Fatal(err)
	}
	opt, schedule, err := p.OptimalLifetime()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(best-16.28) > 1e-9 || math.Abs(opt-16.90) > 1e-9 {
		t.Fatalf("best %v / optimal %v, want 16.28 / 16.90", best, opt)
	}
	if len(schedule) == 0 {
		t.Fatal("no schedule")
	}
}

func TestPublicCustomLoad(t *testing.T) {
	l, err := batsched.NewLoad("pulse",
		batsched.Segment{Duration: 2, Current: 0.3},
		batsched.Segment{Duration: 1, Current: 0},
		batsched.Segment{Duration: 300, Current: 0.3},
	)
	if err != nil {
		t.Fatal(err)
	}
	p, err := batsched.NewProblem([]batsched.BatteryParams{batsched.B2()}, l)
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := p.AnalyticLifetime()
	if err != nil {
		t.Fatal(err)
	}
	discrete, err := p.DiscreteLifetime()
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(discrete-analytic) / analytic; rel > 0.015 {
		t.Fatalf("custom load: discrete %v vs analytic %v", discrete, analytic)
	}
}

func TestPublicPaperLoadNames(t *testing.T) {
	names := batsched.PaperLoadNames()
	if len(names) != 10 {
		t.Fatalf("%d names", len(names))
	}
	names[0] = "tampered"
	if batsched.PaperLoadNames()[0] == "tampered" {
		t.Fatal("PaperLoadNames exposed internal state")
	}
}

func TestPublicPolicies(t *testing.T) {
	for _, p := range []batsched.Policy{
		batsched.Sequential(), batsched.RoundRobin(), batsched.BestAvailable(),
	} {
		if p.Name() == "" {
			t.Fatal("unnamed policy")
		}
	}
}

func TestPublicTA(t *testing.T) {
	l, err := batsched.PaperLoad("CL alt", 60)
	if err != nil {
		t.Fatal(err)
	}
	p, err := batsched.NewProblem(batsched.Bank(batsched.B1(), 2), l)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := p.OptimalLifetimeTA(batsched.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	direct, _, err := p.OptimalLifetime()
	if err != nil {
		t.Fatal(err)
	}
	if sol.LifetimeMinutes != direct {
		t.Fatalf("TA %v vs direct %v", sol.LifetimeMinutes, direct)
	}
}

// TestPublicSweep runs the Table 5 grid through the re-exported sweep API
// and checks it against the per-problem computations.
func TestPublicSweep(t *testing.T) {
	loads, err := batsched.SweepPaperLoads([]string{"CL alt", "ILs alt"}, 200)
	if err != nil {
		t.Fatal(err)
	}
	spec := batsched.SweepSpec{
		Banks: []batsched.SweepBank{batsched.SweepBankOf("2xB1", batsched.B1(), 2)},
		Loads: loads,
		Policies: append(
			batsched.SweepPolicies(batsched.Sequential(), batsched.BestAvailable()),
			batsched.SweepOptimal(),
		),
	}
	results, err := batsched.RunSweep(spec, batsched.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("%d results, want 6", len(results))
	}
	want := map[string]float64{
		"CL alt/sequential": 5.40, "CL alt/best-of-two": 6.12, "CL alt/optimal": 6.46,
		"ILs alt/sequential": 12.38, "ILs alt/best-of-two": 16.28, "ILs alt/optimal": 16.90,
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s/%s: %v", r.Load, r.Policy, r.Err)
		}
		if w := want[r.Load+"/"+r.Policy]; math.Abs(r.Lifetime-w) > 1e-9 {
			t.Errorf("%s/%s: %v, want %v", r.Load, r.Policy, r.Lifetime, w)
		}
	}
}

// TestPublicCompiled exercises the compiled-artifact API: one immutable
// artifact serving multiple runs, including the parallel optimal search.
func TestPublicCompiled(t *testing.T) {
	l, err := batsched.PaperLoad("ILs alt", 200)
	if err != nil {
		t.Fatal(err)
	}
	p, err := batsched.NewProblem(batsched.Bank(batsched.B1(), 2), l)
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	best, err := c.PolicyLifetime(batsched.BestAvailable())
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := c.OptimalLifetime()
	if err != nil {
		t.Fatal(err)
	}
	optPar, _, err := c.OptimalLifetimeParallel(2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(best-16.28) > 1e-9 || math.Abs(opt-16.90) > 1e-9 || optPar != opt {
		t.Fatalf("best %v, optimal %v, parallel optimal %v", best, opt, optPar)
	}
}

func TestPublicGridOption(t *testing.T) {
	l, err := batsched.PaperLoad("CL 250", 60)
	if err != nil {
		t.Fatal(err)
	}
	p, err := batsched.NewProblem([]batsched.BatteryParams{batsched.B1()}, l,
		batsched.WithGrid(0.005, 0.005))
	if err != nil {
		t.Fatal(err)
	}
	lt, err := p.DiscreteLifetime()
	if err != nil {
		t.Fatal(err)
	}
	// A finer grid tracks the analytic 4.53 even closer than the paper's.
	if math.Abs(lt-4.53) > 0.03 {
		t.Fatalf("fine-grid lifetime %v", lt)
	}
}

// TestPublicScenarioAPI drives the serializable scenario layer through the
// root package: JSON in, compiled sweep out, with the same Table 5 values
// the imperative API produces.
func TestPublicScenarioAPI(t *testing.T) {
	scenario, err := batsched.ParseScenario([]byte(`{
		"banks":   [{"battery": {"preset": "B1"}, "count": 2}],
		"loads":   [{"paper": "ILs alt"}],
		"solvers": ["bestof", {"lookahead": {"horizon": 5}}, "optimal"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Compile()
	if err != nil {
		t.Fatal(err)
	}
	results, err := batsched.RunSweep(spec, batsched.SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	byName := map[string]float64{}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Policy, r.Err)
		}
		byName[r.Policy] = r.Lifetime
	}
	if math.Abs(byName["best-of-two"]-16.28) > 1e-9 || math.Abs(byName["optimal"]-16.90) > 1e-9 {
		t.Fatalf("scenario lifetimes %v, want best 16.28 / optimal 16.90", byName)
	}
	// Lookahead must appear in sweeps and land between best-of-two and the
	// optimum.
	la := byName["lookahead-5min"]
	if la < byName["best-of-two"]-1e-9 || la > byName["optimal"]+1e-9 {
		t.Fatalf("lookahead %v outside [%v, %v]", la, byName["best-of-two"], byName["optimal"])
	}
}

// TestPublicSolverRegistry checks every scheme the root package exports is
// name-addressable.
func TestPublicSolverRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, n := range batsched.SolverNames() {
		names[n] = true
	}
	for _, want := range []string{
		"sequential", "roundrobin", "bestof", "lookahead",
		"optimal", "optimal-ta", "analytic", "montecarlo",
	} {
		if !names[want] {
			t.Errorf("SolverNames misses %q", want)
		}
	}
	if _, err := batsched.BuildSolver(batsched.SolverSpec{Name: "greedy"}); err == nil {
		t.Fatal("unknown solver accepted")
	}
	pc, err := batsched.BuildSolver(batsched.SolverSpec{Name: "rr"})
	if err != nil || pc.Policy == nil {
		t.Fatalf("alias rr: %+v %v", pc, err)
	}
}

// TestPublicEvalService runs the service through the root re-exports.
func TestPublicEvalService(t *testing.T) {
	svc := batsched.NewEvalService(batsched.EvalOptions{MaxConcurrent: 2})
	res, err := svc.Evaluate(context.Background(), batsched.RunRequest{
		Bank:   batsched.BankSpec{Battery: &batsched.BatterySpec{Preset: "B1"}, Count: 2},
		Load:   batsched.LoadSpec{Paper: "ILs alt"},
		Solver: batsched.SolverSpec{Name: "bestof"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Error != "" || math.Abs(res.LifetimeMin-16.28) > 1e-9 {
		t.Fatalf("service result %+v", res)
	}
	// One cell evaluated, no store to serve hits from, and no session bank
	// artifact built: sweeps compile their cells themselves.
	if st := svc.Stats(); st.CellsEvaluated != 1 || st.CellHits != 0 || st.Compiles != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestPublicMonteCarlo exercises the Monte-Carlo estimator through the
// root package (it was previously unreachable from the public API).
func TestPublicMonteCarlo(t *testing.T) {
	gen := batsched.MCRandomIntermittent(1, 60, 0.5)
	dist, err := batsched.MCLifetimeDistribution(
		batsched.Bank(batsched.B1(), 2), batsched.BestAvailable(), gen, 20, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.Samples) != 20 || dist.Mean <= 0 || dist.Min() > dist.Max() {
		t.Fatalf("distribution %+v", dist)
	}
	again, err := batsched.MCLifetimeDistribution(
		batsched.Bank(batsched.B1(), 2), batsched.BestAvailable(), gen, 20, 42)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Mean != again.Mean {
		t.Fatalf("not deterministic: %v vs %v", dist.Mean, again.Mean)
	}
	cmp, err := batsched.MCComparePolicies(
		batsched.Bank(batsched.B1(), 2),
		[]batsched.Policy{batsched.Sequential(), batsched.BestAvailable()},
		gen, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if cmp["best-of-two"].Mean < cmp["sequential"].Mean {
		t.Fatalf("best-of-two (%v) worse than sequential (%v) on random loads",
			cmp["best-of-two"].Mean, cmp["sequential"].Mean)
	}
}

// TestPublicUppaalExport checks the Uppaal export is reachable from the
// public API.
func TestPublicUppaalExport(t *testing.T) {
	l, err := batsched.PaperLoad("CL alt", 20)
	if err != nil {
		t.Fatal(err)
	}
	p, err := batsched.NewProblem(batsched.Bank(batsched.B1(), 2), l)
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := c.ExportUppaal(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<nta>") {
		t.Fatalf("export does not look like Uppaal XML: %.80s", buf.String())
	}
}

// TestPublicJobsAPI exercises the asynchronous orchestration surface
// through the public API only: submit, wait, read results, dedup on
// resubmission.
func TestPublicJobsAPI(t *testing.T) {
	st, err := batsched.OpenResultStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	svc := batsched.NewEvalService(batsched.EvalOptions{Store: st})
	mgr := batsched.NewJobManager(svc, st, batsched.JobOptions{Workers: 2})
	defer mgr.Shutdown(context.Background())

	req := batsched.JobRequest{Scenario: batsched.Scenario{
		Banks:   []batsched.BankSpec{{Battery: &batsched.BatterySpec{Preset: "B1"}, Count: 2}},
		Loads:   []batsched.LoadSpec{{Paper: "ILs alt"}},
		Solvers: []batsched.SolverSpec{{Name: "bestof"}},
	}}
	digest, cases, err := batsched.DigestSweep(batsched.SweepRequest{Scenario: req.Scenario})
	if err != nil {
		t.Fatal(err)
	}
	if digest == "" || cases != 1 {
		t.Fatalf("digest %q cases %d", digest, cases)
	}

	sub, err := mgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Digest != digest {
		t.Fatalf("job digest %s, want %s", sub.Digest, digest)
	}
	final, err := mgr.Wait(context.Background(), sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != batsched.JobDone || final.DoneCases != 1 {
		t.Fatalf("job %+v", final)
	}
	lines, err := mgr.Results(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || !strings.Contains(string(lines[0]), "16.28") {
		t.Fatalf("results %s, want the Table 5 best-of-two lifetime", lines)
	}

	re, err := mgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !re.FromStore {
		t.Fatalf("identical resubmission re-ran: %+v", re)
	}
	if c := st.Counters(); c.CellHits != 1 || c.Entries != 1 {
		t.Fatalf("store counters %+v", c)
	}
	if m := mgr.Metrics(); m.CasesEvaluated != 1 {
		t.Fatalf("cases evaluated %d, want 1", m.CasesEvaluated)
	}
}
