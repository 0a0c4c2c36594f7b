// Package experiments implements the paper's §4 evaluation: the Casablanca
// case study (Tables 1–4), the until worked example (Fig. 2), and the
// performance comparison between the direct interval algorithms and the
// SQL-based baseline on random data (Tables 5–6, plus the "more complex
// formulas" the paper mentions in passing).
package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"htlvideo/internal/casablanca"
	"htlvideo/internal/core"
	"htlvideo/internal/htl"
	"htlvideo/internal/interval"
	"htlvideo/internal/listio"
	"htlvideo/internal/picture"
	"htlvideo/internal/simlist"
	"htlvideo/internal/sqlgen"
	"htlvideo/internal/workload"
)

// CasablancaTables computes the four tables of §4.1 through the real
// pipeline (picture system over the 50-shot store, then the similarity-list
// generator). It fails unless the SQL baseline (EvalSQL) computes Query 1
// identically, as §4.1 reports.
func CasablancaTables() (movingTrain, manWoman, eventually, query1 simlist.List, err error) {
	sys, err := casablanca.System()
	if err != nil {
		return
	}
	mt, err := sys.EvalAtomic(htl.MustParse(casablanca.MovingTrainQuery))
	if err != nil {
		return
	}
	movingTrain = core.ProjectMax(mt)
	mw, err := sys.EvalAtomic(htl.MustParse(casablanca.ManWomanQuery))
	if err != nil {
		return
	}
	manWoman = core.ProjectMax(mw)
	eventually = core.EventuallyList(movingTrain)
	q1 := htl.MustParse(casablanca.Query1)
	if query1, err = core.Eval(sys, q1, core.DefaultOptions()); err != nil {
		return
	}
	viaSQL, err := EvalSQL(sys, q1, core.DefaultUntilThreshold)
	if err == nil && !simlist.EqualApprox(query1, viaSQL, 1e-9) {
		err = fmt.Errorf("experiments: direct and SQL results differ on Casablanca Query 1:\n %v\n %v", query1, viaSQL)
	}
	return
}

// EvalSQL evaluates a type (1) formula over one video's sequence through the
// §4 SQL baseline: the picture system scores each maximal non-temporal
// subformula, the scores are loaded as interval relations, and the formula's
// temporal skeleton runs as the translator's statement sequence.
func EvalSQL(sys *picture.System, f htl.Formula, tau float64) (simlist.List, error) {
	units := sqlgen.AtomicUnits(f)
	names := make([]string, len(units))
	lists := make(map[string]simlist.List, len(units))
	for i, unit := range units {
		tb, err := sys.EvalAtomic(unit)
		if err != nil {
			return simlist.List{}, err
		}
		names[i] = unit.String()
		lists[names[i]] = core.ProjectMax(tb)
	}
	tr, atoms, err := loadSQL(sys.Len(), tau, names, lists)
	if err != nil {
		return simlist.List{}, err
	}
	return tr.Eval(f, atoms)
}

// Figure2 reproduces the worked until example of §3.1.
func Figure2() (l1, l2, out simlist.List) {
	e := func(beg, end int32, act float64) simlist.Entry {
		return simlist.Entry{Iv: interval.I{Beg: beg, End: end}, Act: act}
	}
	l1 = simlist.NewList(20, e(25, 100, 15), e(200, 250, 15))
	l2 = simlist.NewList(20, e(10, 50, 10), e(55, 60, 15), e(90, 110, 12), e(125, 175, 10))
	out = core.UntilLists(l1, l2, 0.5)
	return
}

// Op identifies the formula of a performance run.
type Op string

const (
	// OpAnd is Table 5's  P1 ∧ P2.
	OpAnd Op = "P1 and P2"
	// OpUntil is Table 6's  P1 until P2.
	OpUntil Op = "P1 until P2"
	// OpComplex1 is the first of the paper's "more complex formulas".
	OpComplex1 Op = "P1 and next (P2 until P3)"
	// OpComplex2 is the second.
	OpComplex2 Op = "P1 until (P2 and eventually P3)"
)

// Formula returns the HTL text of the operation.
func (op Op) Formula() htl.Formula { return htl.MustParse(string(op)) }

// Atoms lists the predicate names the operation uses.
func (op Op) Atoms() []string {
	if op == OpAnd || op == OpUntil {
		return []string{"P1", "P2"}
	}
	return []string{"P1", "P2", "P3"}
}

// PerfInput is a prepared workload for one size.
type PerfInput struct {
	Size  int
	Lists map[string]simlist.List
}

// PrepareInput generates the §4.2 random similarity tables for one size
// (roughly a tenth of the shots satisfying each predicate).
func PrepareInput(op Op, size int, seed int64) PerfInput {
	in := PerfInput{Size: size, Lists: map[string]simlist.List{}}
	for i, name := range op.Atoms() {
		cfg := workload.DefaultConfig(size, seed+int64(i)*101)
		cfg.MaxSim = []float64{20, 20, 12}[i%3]
		in.Lists[name] = workload.Generate(cfg)
	}
	return in
}

// RunDirect evaluates the operation with the §3 interval algorithms and
// returns the elapsed time. As in the paper, the measured time includes
// sorting the input lists on their start ids (the entries arrive shuffled,
// simulating retrieval order from secondary storage).
func RunDirect(op Op, in PerfInput, tau float64, rng *rand.Rand) (simlist.List, time.Duration) {
	shuffled := map[string][]simlist.Entry{}
	maxes := map[string]float64{}
	for name, l := range in.Lists {
		es := append([]simlist.Entry(nil), l.Entries...)
		rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		shuffled[name] = es
		maxes[name] = l.MaxSim
	}
	start := time.Now()
	lists := map[string]simlist.List{}
	for name, es := range shuffled {
		sort.Slice(es, func(i, j int) bool { return es[i].Iv.Beg < es[j].Iv.Beg })
		lists[name] = simlist.List{MaxSim: maxes[name], Entries: es}
	}
	out := evalDirect(op.Formula(), lists, tau)
	return out, time.Since(start)
}

func evalDirect(f htl.Formula, atoms map[string]simlist.List, tau float64) simlist.List {
	if l, ok := atoms[f.String()]; ok {
		return l
	}
	switch n := f.(type) {
	case htl.And:
		return core.AndLists(evalDirect(n.L, atoms, tau), evalDirect(n.R, atoms, tau))
	case htl.Until:
		return core.UntilLists(evalDirect(n.L, atoms, tau), evalDirect(n.R, atoms, tau), tau)
	case htl.Next:
		return core.NextList(evalDirect(n.F, atoms, tau))
	case htl.Eventually:
		return core.EventuallyList(evalDirect(n.F, atoms, tau))
	default:
		panic(fmt.Sprintf("experiments: unsupported node %T", f))
	}
}

// EncodeInput serializes a workload's similarity lists with the binary list
// format — the "secondary storage" the paper's direct-method timings read
// from.
func EncodeInput(in PerfInput) (map[string][]byte, error) {
	out := map[string][]byte{}
	for name, l := range in.Lists {
		var buf bytes.Buffer
		if err := listio.Write(&buf, l); err != nil {
			return nil, err
		}
		out[name] = buf.Bytes()
	}
	return out, nil
}

// RunDirectStored is RunDirect with the paper's full measurement: the timed
// section decodes the similarity tables from their stored representation
// before running the interval algorithms.
func RunDirectStored(op Op, encoded map[string][]byte, tau float64) (simlist.List, time.Duration, error) {
	start := time.Now()
	lists := map[string]simlist.List{}
	for name, data := range encoded {
		l, err := listio.Read(bytes.NewReader(data))
		if err != nil {
			return simlist.List{}, 0, err
		}
		lists[name] = l
	}
	out := evalDirect(op.Formula(), lists, tau)
	return out, time.Since(start), nil
}

// PrepareSQL builds the translator and loads the atomic interval tables —
// the untimed setup of a SQL run.
func PrepareSQL(op Op, in PerfInput, tau float64) (*sqlgen.Translator, map[string]sqlgen.Atom, error) {
	return loadSQL(in.Size, tau, op.Atoms(), in.Lists)
}

// loadSQL builds a translator over n segments and loads the list of each
// name, in order, as the interval relation p1, p2, …; the atoms it returns
// map each name to its relation.
func loadSQL(n int, tau float64, names []string, lists map[string]simlist.List) (*sqlgen.Translator, map[string]sqlgen.Atom, error) {
	tr, err := sqlgen.New(n, tau)
	if err != nil {
		return nil, nil, err
	}
	atoms := make(map[string]sqlgen.Atom, len(names))
	for i, name := range names {
		table := fmt.Sprintf("p%d", i+1)
		if err := tr.LoadAtomic(table, lists[name]); err != nil {
			return nil, nil, err
		}
		atoms[name] = sqlgen.Atom{Table: table, MaxSim: lists[name].MaxSim}
	}
	return tr, atoms, nil
}

// RunSQL evaluates the operation through the SQL baseline and returns the
// elapsed time of executing the generated statement sequence (the series
// relation and the atomic interval tables are loaded beforehand, matching
// the paper's measurement of "the time for executing the sequence of SQL
// queries generated on the similarity tables").
func RunSQL(op Op, in PerfInput, tau float64) (simlist.List, time.Duration, error) {
	tr, atoms, err := PrepareSQL(op, in, tau)
	if err != nil {
		return simlist.List{}, 0, err
	}
	start := time.Now()
	out, err := tr.Eval(op.Formula(), atoms)
	return out, time.Since(start), err
}

// PerfRow is one row of Table 5/6: the two approaches' times for one size.
type PerfRow struct {
	Size   int
	Direct time.Duration
	SQL    time.Duration
}

// Compare runs both systems on one size, verifies they produce identical
// similarity lists, and returns the timings.
func Compare(op Op, size int, seed int64, tau float64) (PerfRow, error) {
	in := PrepareInput(op, size, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	direct, dt := RunDirect(op, in, tau, rng)
	viaSQL, st, err := RunSQL(op, in, tau)
	if err != nil {
		return PerfRow{}, err
	}
	if !simlist.EqualApprox(direct, viaSQL, 1e-6) {
		return PerfRow{}, fmt.Errorf("experiments: direct and SQL results differ on %q size %d", op, size)
	}
	return PerfRow{Size: size, Direct: dt, SQL: st}, nil
}
