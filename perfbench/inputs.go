package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"repro/internal/benchprogs"
	"repro/internal/ingest"
	"repro/internal/lisp"
	"repro/internal/sim"
	"repro/internal/trace"
)

// refStepLimit bounds each reference evaluation; the editor driver is
// the deepest and stays far inside it.
const refStepLimit = 200_000_000

// program is one benchprog split for serving: its definitions, its
// data (the global assignments of quoted literals), and its driver (the
// remaining top-level forms). A session loads all three once; after
// that, evaluating the driver again always gives the same value.
type program struct {
	name   string
	defs   string
	data   string
	driver string
	short  []string // pure calls into the loaded program

	// Reference values from the lisp interpreter.
	loadWant   string // the load in a fresh interpreter
	driverWant string // the driver again after the load
	shortWant  []string
}

// splitForms cuts Lisp source into its top-level forms as text. The
// benchprogs sources hold no strings or comments, so parenthesis depth
// alone delimits forms; a leading quote stays with its form.
func splitForms(src string) ([]string, error) {
	var forms []string
	depth, start := 0, -1
	for i := 0; i < len(src); i++ {
		switch c := src[i]; {
		case c == '(':
			if depth == 0 && start < 0 {
				start = i
			}
			depth++
		case c == ')':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("unbalanced ')' at byte %d", i)
			}
			if depth == 0 {
				forms = append(forms, src[start:i+1])
				start = -1
			}
		case c == ' ' || c == '\n' || c == '\t' || c == '\r':
			if depth == 0 && start >= 0 {
				forms = append(forms, src[start:i])
				start = -1
			}
		default:
			if depth == 0 && start < 0 {
				start = i
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("unbalanced '(' at end of source")
	}
	if start >= 0 {
		forms = append(forms, src[start:])
	}
	return forms, nil
}

// newProgram splits benchprog name at scale into definitions, data and driver,
// draws nShort short calls from rng, and computes every reference value
// on the lisp interpreter.
func newProgram(name string, scale, nShort int, rng *rand.Rand) (*program, error) {
	b, ok := benchprogs.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown benchprog %q", name)
	}
	forms, err := splitForms(b.Gen(scale))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var defs, data, driver []string
	for _, f := range forms {
		switch {
		case strings.HasPrefix(f, "(def "):
			defs = append(defs, f)
		case isDataForm(f):
			data = append(data, f)
		default:
			driver = append(driver, f)
		}
	}
	p := &program{name: name, defs: strings.Join(defs, "\n"), data: strings.Join(data, "\n"),
		driver: strings.Join(driver, "\n")}
	gen := shortCalls[name]
	seen := map[string]bool{}
	for tries := 0; len(p.short) < nShort; tries++ {
		if tries == 100*nShort {
			return nil, fmt.Errorf("%s: fewer than %d distinct short calls", name, nShort)
		}
		if e := gen(rng, len(p.short)); !seen[e] {
			seen[e] = true
			p.short = append(p.short, e)
		}
	}
	return p, p.computeRefs()
}

// isDataForm reports whether a top-level form assigns a quoted literal
// to a global, as in (setq layout '(...)).
func isDataForm(f string) bool {
	rest, ok := strings.CutPrefix(f, "(setq ")
	if !ok {
		return false
	}
	_, val, _ := strings.Cut(rest, " ")
	return strings.HasPrefix(val, "'")
}

// computeRefs evaluates the program on the lisp interpreter: the load,
// the driver twice (checking it is idempotent, which every expected
// value relies on), and each short call.
func (p *program) computeRefs() error {
	in := lisp.New(lisp.WithOutput(io.Discard), lisp.WithStepLimit(refStepLimit))
	eval := func(src string) (string, error) {
		in.ResetSteps()
		v, err := in.Run(src)
		if err != nil {
			return "", fmt.Errorf("%s reference: %w", p.name, err)
		}
		return lisp.Format(v), nil
	}
	var err error
	if p.loadWant, err = eval(p.load()); err != nil {
		return err
	}
	if p.driverWant, err = eval(p.driver); err != nil {
		return err
	}
	again, err := eval(p.driver)
	if err != nil {
		return err
	}
	if again != p.driverWant {
		return fmt.Errorf("%s: driver is not idempotent: %s then %s", p.name, p.driverWant, again)
	}
	p.shortWant = make([]string, len(p.short))
	for i, e := range p.short {
		if p.shortWant[i], err = eval(e); err != nil {
			return err
		}
	}
	return nil
}

// load is the source that installs the program in a fresh session.
func (p *program) load() string { return p.defs + "\n" + p.data + "\n" + p.driver }

// shortCalls draws the k-th pure call into each loaded benchprog. Each
// program has three kinds of call, taken in turn so every seed gets the
// same mix and only the arguments vary. None of them writes a global
// or a property, so their values do not depend on what ran before them
// in the session.
var shortCalls = map[string]func(r *rand.Rand, k int) string{
	"slang": func(r *rand.Rand, k int) string {
		switch k % 3 {
		case 0:
			ops := []string{"and2", "or2", "xor2", "nand2"}
			return fmt.Sprintf("(gate-eval '%s %d %d)", ops[r.Intn(4)], r.Intn(2), r.Intn(2))
		case 1:
			return fmt.Sprintf("(get 'w%d 'val)", r.Intn(13))
		default:
			return fmt.Sprintf("(cadr %s)", nth(r.Intn(13), "circuit"))
		}
	},
	"plagen": func(r *rand.Rand, k int) string {
		pla := r.Intn(3)
		switch k % 3 {
		case 0:
			row := func() string {
				bits := []string{"o", "i", "x"}
				var parts []string
				for j := 0; j < 5; j++ {
					parts = append(parts, fmt.Sprintf("%s%d", bits[r.Intn(3)], pla))
				}
				return strings.Join(parts, " ")
			}
			return fmt.Sprintf("(same-row '(%s) '(%s))", row(), row())
		case 1:
			return fmt.Sprintf("(count-sites (car %s) 'x%d)", nth(r.Intn(14), fmt.Sprintf("terms%d", pla)), pla)
		default:
			return fmt.Sprintf("(count-ones (cadr %s) 'i%d)", nth(r.Intn(14), fmt.Sprintf("terms%d", pla)), pla)
		}
	},
	"lyra": func(r *rand.Rand, k int) string {
		switch k % 3 {
		case 0:
			return fmt.Sprintf("(gap %d %d %d %d)", r.Intn(50), 50+r.Intn(50), r.Intn(50), 50+r.Intn(50))
		case 1:
			return fmt.Sprintf("(spacing-ok %s %s %d)", nth(r.Intn(60), "layout"), nth(r.Intn(60), "layout"), 2+r.Intn(2))
		default:
			return fmt.Sprintf("(rect-x2 %s)", nth(r.Intn(60), "layout"))
		}
	},
	"editor": func(r *rand.Rand, k int) string {
		d := r.Intn(3)
		words := []string{"setq", "cond", "lambda", "newfoo", "bar", "baz", "x", "y", "tmp", "prog"}
		switch k % 3 {
		case 0:
			return fmt.Sprintf("(edit-depth %s)", nth(r.Intn(3), fmt.Sprintf("doc%d", d)))
		case 1:
			return fmt.Sprintf("(edit-find '%s%d (cadr doc%d))", words[r.Intn(len(words))], d, d)
		default:
			return fmt.Sprintf("(edit-count '%s%d (car doc%d))", words[r.Intn(len(words))], d, d)
		}
	},
	"pearl": func(r *rand.Rand, k int) string {
		switch k % 3 {
		case 0:
			return fmt.Sprintf("(db-sum-rec '(rec%d rec%d) 0)", r.Intn(10), r.Intn(10))
		case 1:
			return fmt.Sprintf("(car (get 'rec%d 'slota))", r.Intn(10))
		default:
			return fmt.Sprintf("(car (get 'rec%d 'slotb))", r.Intn(10))
		}
	},
}

// nth spells (nth k list) in the car/cdr accessors both engines
// compile: the VM has no nth.
func nth(k int, list string) string {
	e := list
	for ; k >= 4; k -= 4 {
		e = "(cddddr " + e + ")"
	}
	for ; k > 0; k-- {
		e = "(cdr " + e + ")"
	}
	return "(car " + e + ")"
}

// ingestTrace is one rendered upload and its reference results, one per
// simulation seed the workload draws from.
type ingestTrace struct {
	name   string
	smtb   []byte
	plan   []ingest.Shard
	events int
	want   map[int64][]byte // sim seed -> compact JSON of merged stats
}

// ingestShards is the shard count every ingest run asks for.
const ingestShards = 2

// newIngestTrace renders benchprog name at scale as SMTB and computes
// the merged statistics a run must return for each sim seed: single-node
// sim.RunCtx over each planned shard, folded through sim.ShardOf.
func newIngestTrace(ctx context.Context, name string, scale int, simSeeds []int64) (*ingestTrace, error) {
	b, ok := benchprogs.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown benchprog %q", name)
	}
	tr, err := benchprogs.Trace(b, scale)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		return nil, err
	}
	st := trace.Preprocess(tr)
	it := &ingestTrace{
		name: name, smtb: buf.Bytes(), events: len(st.Refs),
		plan: ingest.PlanCounts([]int{len(st.Refs)}, ingestShards),
		want: map[int64][]byte{},
	}
	for _, seed := range simSeeds {
		var total sim.ShardStats
		for _, sh := range it.plan {
			view, err := trace.SubStream(st, sh.Lo, sh.Hi)
			if err != nil {
				return nil, err
			}
			res, err := sim.RunCtx(ctx, view, sim.Params{Seed: seed})
			if err != nil {
				return nil, err
			}
			one := sim.ShardOf(res)
			total.Merge(&one)
		}
		if it.want[seed], err = json.Marshal(&total); err != nil {
			return nil, err
		}
	}
	return it, nil
}

// checkStats compares a run's merged statistics, as JSON in any
// layout, with the reference for seed byte for byte.
func (it *ingestTrace) checkStats(seed int64, got []byte) error {
	var buf bytes.Buffer
	if err := json.Compact(&buf, got); err != nil {
		return fmt.Errorf("%s: stats are not JSON: %w", it.name, err)
	}
	if want := it.want[seed]; !bytes.Equal(buf.Bytes(), want) {
		return fmt.Errorf("%s seed %d: merged stats %s, want %s", it.name, seed, buf.Bytes(), want)
	}
	return nil
}

// checkPlan compares a run's shard plan with the reference plan.
func (it *ingestTrace) checkPlan(got []ingest.Shard) error {
	if len(got) != len(it.plan) {
		return fmt.Errorf("%s: plan has %d shards, want %d", it.name, len(got), len(it.plan))
	}
	for i := range got {
		if got[i] != it.plan[i] {
			return fmt.Errorf("%s: shard %d is %+v, want %+v", it.name, i, got[i], it.plan[i])
		}
	}
	return nil
}

// checkEval compares a session eval's reply with the reference value.
func checkEval(what string, got evalReply, want string) error {
	if got.Error != "" {
		return fmt.Errorf("%s: eval error %q", what, got.Error)
	}
	if got.Value != want {
		return fmt.Errorf("%s: value %.120q, want %.120q", what, got.Value, want)
	}
	return nil
}

// evalReply is the part of a session eval response the checks read.
type evalReply struct {
	Value string `json:"value"`
	Error string `json:"error"`
}
