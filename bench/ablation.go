package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"asyncg"
	"asyncg/internal/casestudy"
	"asyncg/internal/detect"
	"asyncg/internal/eventloop"
	"asyncg/internal/explore"
)

// This file is the Fig. 6a-style ablation: recorded schedules are played
// back on reused runners with the Async Graph builder and the detectors
// switched off, with the builder alone, and with everything on. The
// differences between a schedule's three run times are the cost of each
// layer on exactly the schedules the workload ran.

// scheduled is one recorded schedule: the target it ran on, its replay
// token, and the fingerprint the exploration reported for it.
type scheduled struct {
	target      string
	token       string
	fingerprint string
}

// playback is an eventloop.Scheduler that answers the i-th choice point
// with the i-th recorded pick, and 0 past the end of the recording (a
// token trims trailing zero picks). The loop clamps a pick outside the
// live domain to 0, as the explore engine's replay does.
type playback struct {
	picks []int
	pos   int
}

func (p *playback) Choose(_ eventloop.ChoiceKind, _ int) int {
	k := 0
	if p.pos < len(p.picks) {
		k = p.picks[p.pos]
	}
	p.pos++
	return k
}

// ablation is what playing the schedules back measured. The layer
// times are medians over the schedules of each schedule's own difference
// between two configurations, so a garbage collection or a slow outlier
// during one run does not shift them.
type ablation struct {
	eventloopUs   float64 // builder and detectors off
	buildUs       float64 // builder only, minus off
	detectUs      float64 // everything on, minus builder only
	fingerprintUs float64 // Graph.Fingerprint on the full report
	nodes, edges  float64 // mean graph size of the full report
	mismatches    int     // full-config fingerprints that differ from the recording
	runs          int
}

// ablationConfigs are the three session configurations, in the order
// each schedule is played under them.
var ablationConfigs = [3]asyncg.Option{
	asyncg.Disabled(),
	asyncg.WithDetect(detect.Config{}),
	nil, // the full default session
}

// evenly picks n schedules spread evenly over recorded, so that the
// ablation sees the same mix of targets and schedules as the whole pass.
func evenly(recorded []scheduled, n int) []scheduled {
	if len(recorded) <= n {
		return recorded
	}
	out := make([]scheduled, n)
	for i := range out {
		out[i] = recorded[i*len(recorded)/n]
	}
	return out
}

// sampler keeps an evenly spaced sample of the schedules offered to it:
// every stride-th one, with the stride doubled whenever 2n are held, so
// it holds between n and 2n of however many a pass offers.
type sampler struct {
	n, stride, seen int
	kept            []scheduled
}

func newSampler(n int) *sampler { return &sampler{n: n, stride: 1} }

func (s *sampler) offer(x scheduled) {
	if s.seen%s.stride == 0 {
		s.kept = append(s.kept, x)
		if len(s.kept) == 2*s.n {
			for i := range s.n {
				s.kept[i] = s.kept[2*i]
			}
			s.kept = s.kept[:s.n]
			s.stride *= 2
		}
	}
	s.seen++
}

// sample returns n of the offered schedules, spread evenly over them.
func (s *sampler) sample() []scheduled { return evenly(s.kept, s.n) }

// ablate plays every recorded schedule once under each configuration,
// interleaved so that drift on the host affects the three equally. The
// schedules are taken target by target: each target gets one reused
// runner per configuration, warmed by one untimed run and dropped when
// the next target starts, so the live heap stays that of one program.
func ablate(recorded []scheduled) (ablation, error) {
	var a ablation
	byTarget := slices.Clone(recorded)
	sort.SliceStable(byTarget, func(i, j int) bool { return byTarget[i].target < byTarget[j].target })
	var loop, build, det, fps []float64
	var runners [3]explore.Runner
	current := ""
	for _, rec := range byTarget {
		sched, err := explore.ParseToken(rec.token)
		if err != nil {
			return a, err
		}
		if rec.target != current {
			for c, opt := range ablationConfigs {
				if runners[c], err = ablationRunner(rec.target); err != nil {
					return a, err
				}
				if _, err := playOn(runners[c], opt, sched.Picks); err != nil {
					return a, err
				}
			}
			current = rec.target
		}
		var us [3]float64
		for c, opt := range ablationConfigs {
			start := time.Now()
			rep, err := playOn(runners[c], opt, sched.Picks)
			us[c] = float64(time.Since(start).Nanoseconds()) / 1e3
			if err != nil {
				return a, err
			}
			if opt != nil {
				continue
			}
			if rep.Graph == nil {
				return a, fmt.Errorf("ablation: %s produced no graph", rec.target)
			}
			start = time.Now()
			fp := rep.Graph.Fingerprint()
			fps = append(fps, float64(time.Since(start).Nanoseconds())/1e3)
			if fp != rec.fingerprint {
				a.mismatches++
			}
			a.nodes += float64(len(rep.Graph.Nodes))
			a.edges += float64(len(rep.Graph.Edges))
		}
		loop = append(loop, us[0])
		build = append(build, us[1]-us[0])
		det = append(det, us[2]-us[1])
	}
	a.runs = len(recorded)
	a.eventloopUs = percentile(loop, 50)
	a.buildUs = percentile(build, 50)
	a.detectUs = percentile(det, 50)
	a.fingerprintUs = percentile(fps, 50)
	a.nodes = ratio(a.nodes, float64(a.runs))
	a.edges = ratio(a.edges, float64(a.runs))
	return a, nil
}

// ablationRunner returns a fresh runner for a target spec. A case study
// runs without its manual graph query (Case.Manual), which reads the
// graph that the builder-off configuration does not build; the query
// only adds warnings, so fingerprints are unaffected.
func ablationRunner(spec string) (explore.Runner, error) {
	id, ok := strings.CutPrefix(spec, "case:")
	if !ok {
		t, err := explore.TargetByName(spec)
		if err != nil {
			return nil, err
		}
		return t.NewRunner(), nil
	}
	c, ok := casestudy.ByID(id)
	if !ok {
		return nil, fmt.Errorf("ablation: unknown case %q", id)
	}
	return &caseRunner{c: c}, nil
}

// caseRunner runs a case study's buggy program on a reused session.
type caseRunner struct {
	c       casestudy.Case
	session *asyncg.Session
}

func (r *caseRunner) Run(extra ...asyncg.Option) (*asyncg.Report, error) {
	if r.session == nil {
		r.session = casestudy.SessionFor(r.c, extra...)
	} else {
		r.session.Apply(extra...)
	}
	return r.session.Run(r.c.Buggy)
}

func (r *caseRunner) Reset() {
	if r.session != nil {
		r.session.Reset()
	}
}

// playOn rewinds r and runs one recorded schedule on it. A run-limit
// error (the starvation cases stop at their tick limit by design) still
// comes with a complete report, so only a missing report is an error.
func playOn(r explore.Runner, opt asyncg.Option, picks []int) (*asyncg.Report, error) {
	r.Reset()
	opts := []asyncg.Option{asyncg.WithScheduler(&playback{picks: picks})}
	if opt != nil {
		opts = append(opts, opt)
	}
	rep, err := r.Run(opts...)
	if rep == nil {
		return nil, fmt.Errorf("ablation: run failed: %v", err)
	}
	return rep, nil
}
