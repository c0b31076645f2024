package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mpi4spark/internal/obs"
	"mpi4spark/internal/vtime"
)

// span is one interval of the traced run, in microseconds. Virtual-time
// spans live in one process per backend, with a driver lane, a
// micro-batch lane and one lane per executor; wall-time spans (set-up,
// jobs, teardown) live in a wall-clock process with one lane per backend.
type span struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Lanes of a backend's virtual-time process; executors follow.
const (
	driverLane = 0
	batchLane  = 1
	firstExec  = 2
)

func us(s vtime.Stamp) float64 { return float64(s) / 1e3 }

// meta names a process (tid < 0) or a lane.
func meta(pid, tid int, name string) span {
	if tid < 0 {
		return span{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": name}}
	}
	return span{Name: "thread_name", Ph: "M", PID: pid, TID: tid, Args: map[string]any{"name": name}}
}

// spans lays out every traced repetition: job → stage → task →
// fetch-wait in virtual time, keyed by job, stage and partition, and
// set-up, jobs and teardown in wall time. Repetitions of one backend
// follow each other on its virtual timeline.
func spans(traces [][]*repTrace, t0 time.Time) []span {
	var out []span
	wallPID := len(backends) + 1
	out = append(out, meta(wallPID, -1, "wall clock"))
	sinceT0 := func(t time.Time) float64 { return float64(t.Sub(t0).Nanoseconds()) / 1e3 }
	for i, ts := range traces {
		pid := i + 1
		out = append(out, meta(pid, -1, backends[i].name+" (virtual time)"),
			meta(pid, driverLane, "driver"), meta(pid, batchLane, "micro-batches"),
			meta(wallPID, pid, backends[i].name))
		lanes := map[string]int{}
		var offset vtime.Stamp
		for _, t := range ts {
			// Wall time: set-up ends when the repetition starts.
			setupStart := t.start.Add(-t.rec.setup)
			runEnd := t.start.Add(t.rec.cost.wall)
			out = append(out,
				span{Name: "setup", Cat: "wall", Ph: "X", TS: sinceT0(setupStart), Dur: float64(t.rec.setup.Nanoseconds()) / 1e3, PID: wallPID, TID: pid},
				span{Name: "run", Cat: "wall", Ph: "X", TS: sinceT0(t.start), Dur: float64(t.rec.cost.wall.Nanoseconds()) / 1e3, PID: wallPID, TID: pid},
				span{Name: "teardown", Cat: "wall", Ph: "X", TS: sinceT0(runEnd), Dur: float64(t.rec.teardown.Nanoseconds()) / 1e3, PID: wallPID, TID: pid})
			out = append(out, vtSpans(t.events, pid, offset, lanes, wallPID, sinceT0)...)
			var end vtime.Stamp
			for _, e := range t.events {
				end = vtime.Max(end, e.VT)
			}
			offset += end
		}
		ids := make([]string, 0, len(lanes))
		for id := range lanes {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			out = append(out, meta(pid, lanes[id], id))
		}
	}
	return out
}

// vtSpans turns one repetition's events into virtual-time spans shifted
// by offset, plus each job's wall-time span. lanes assigns executors
// their lane numbers.
func vtSpans(events []obs.Event, pid int, offset vtime.Stamp, lanes map[string]int, wallPID int, sinceT0 func(time.Time) float64) []span {
	var out []span
	jobStart := map[int]obs.Event{}
	stageStart := map[stageKey]vtime.Stamp{}
	lane := func(exec string) int {
		if _, ok := lanes[exec]; !ok {
			lanes[exec] = firstExec + len(lanes)
		}
		return lanes[exec]
	}
	vt := func(name, cat string, tid int, start, end vtime.Stamp, args map[string]any) span {
		return span{Name: name, Cat: cat, Ph: "X", TS: us(offset + start), Dur: us(end - start), PID: pid, TID: tid, Args: args}
	}
	for _, e := range events {
		switch e.Type {
		case obs.EvJobStart:
			jobStart[e.Job] = e
		case obs.EvJobEnd:
			s, ok := jobStart[e.Job]
			if !ok {
				continue
			}
			args := map[string]any{"job": e.Job}
			out = append(out, vt(fmt.Sprintf("job %d", e.Job), "job", driverLane, s.VT, e.VT, args),
				span{Name: fmt.Sprintf("job %d", e.Job), Cat: "wall", Ph: "X", TS: sinceT0(s.Wall),
					Dur: float64(e.Wall.Sub(s.Wall).Nanoseconds()) / 1e3, PID: wallPID, TID: pid, Args: args})
		case obs.EvStageSubmitted:
			stageStart[stageKey{e.Job, e.Stage}] = e.VT
		case obs.EvStageCompleted:
			if s, ok := stageStart[stageKey{e.Job, e.Stage}]; ok {
				out = append(out, vt(e.StageName, "stage", driverLane, s, e.VT,
					map[string]any{"job": e.Job, "stage": e.Stage, "tasks": e.Tasks}))
			}
		case obs.EvTaskEnd:
			args := map[string]any{"job": e.Job, "stage": e.Stage, "partition": e.Partition,
				"bytesLocal": e.BytesLocal, "bytesRemote": e.BytesRemote}
			tid := lane(e.Executor)
			out = append(out, vt(fmt.Sprintf("task %d.%d", e.Stage, e.Partition), "task", tid, e.Start, e.VT, args))
			if e.FetchWait > 0 {
				out = append(out, vt("fetch-wait", "fetch", tid, e.Start, e.Start+e.FetchWait, args))
			}
		case obs.EvBatchCompleted:
			out = append(out, vt(fmt.Sprintf("batch %d", e.Batch), "batch", batchLane, e.Start, e.VT,
				map[string]any{"batch": e.Batch, "events": e.Records, "schedDelayUs": us(e.SchedDelay)}))
		}
	}
	return out
}

// writeChromeTrace writes spans as Chrome Trace Event JSON, which
// Perfetto and chrome://tracing open.
func writeChromeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": spans, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
