package experiment

// fabric.go is the connection-fabric latency sweep (PR 8): one client
// fetching one content from one origin over a ShapedNet link in
// delivery-time propagation mode, where every request/response turn
// pays the path RTT. The sweep crosses RTT {1, 25, 100 ms} with the
// session's request discipline — stop-and-wait (PipelineDepth 1, the
// pre-fabric behavior: one batch in flight, one RTT per batch) against
// the pipelined AIMD ramp (adaptive depth, requests overlap the
// in-flight stream). The claim under test: pipelining amortizes the
// per-batch RTT, and at WAN latency (100 ms) the pipelined session
// moves at least 3× the stop-and-wait goodput. cmd/icdbench renders
// the table (`-exp fabric`) and writes the rows as the BENCH_pr8.json
// artifact.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"icd/internal/faultnet"
	"icd/internal/peer"
)

// fabricSpeedupFloor is the acceptance bar: pipelined goodput over
// stop-and-wait at the largest RTT in the sweep.
const fabricSpeedupFloor = 3.0

// FabricRow is one RTT × request-discipline measurement — the
// BENCH_pr8.json artifact schema.
type FabricRow struct {
	RTTMs       float64 `json:"rtt_ms"`
	Mode        string  `json:"mode"`  // "stopwait" or "pipelined"
	Depth       int     `json:"depth"` // requested depth: 1 fixed, 0 adaptive
	Batch       int     `json:"batch"` // symbols per request batch
	Blocks      int     `json:"blocks"`
	Bytes       int     `json:"bytes"`
	Completed   bool    `json:"completed"`
	ElapsedMs   float64 `json:"elapsed_ms"`
	GoodputKBps float64 `json:"goodput_kbps"`
	// Speedup is this row's goodput over the stop-and-wait row at the
	// same RTT (1.0 on the stop-and-wait rows themselves).
	Speedup float64 `json:"speedup"`
}

// fabricN clamps the sweep's content size: the measurement's geometry
// is batches-per-transfer, and too few batches (small -n) would let
// constant handshake turns dominate both disciplines and flatten the
// very ratio the sweep exists to measure.
func fabricN(n int) int {
	if n < 1500 {
		return 1500
	}
	if n > 4096 {
		return 4096
	}
	return n
}

// runFabricFetch measures one fetch of the fixture over a fresh shaped
// link with the given RTT and pipeline depth. The link is symmetric:
// each endpoint's access latency is RTT/4, so one direction pays RTT/2
// and a request/response turn pays the full RTT.
func runFabricFetch(fix *SwarmFixture, seed uint64, rtt time.Duration, depth, batch int) (FabricRow, error) {
	row := FabricRow{
		RTTMs:  ms(rtt),
		Mode:   "pipelined",
		Depth:  depth,
		Batch:  batch,
		Blocks: fix.Info.NumBlocks,
		Bytes:  len(fix.Content),
	}
	if depth == 1 {
		row.Mode = "stopwait"
	}

	net := faultnet.NewShapedNet(seed)
	net.SetDeliveryLatency(true)
	wan := faultnet.LinkClass{Name: "wan", Latency: rtt / 4}
	net.SetClass("origin", wan)
	net.SetClass("client", wan)

	srv, err := peer.NewFullServer(fix.Info, fix.Content)
	if err != nil {
		return row, err
	}
	mux := frontDoor(srv)
	ln, err := net.Listen("origin")
	if err != nil {
		return row, err
	}
	go mux.Serve(ln)
	defer mux.Close()

	start := time.Now()
	res, err := peer.Fetch([]string{"origin"}, fix.Info.ID, peer.FetchOptions{
		Batch:         batch,
		Timeout:       2 * time.Minute,
		Dial:          net.Node("client").Dial,
		PipelineDepth: depth,
	})
	elapsed := time.Since(start)
	if err != nil {
		return row, err
	}
	if !res.Completed || !bytes.Equal(res.Data, fix.Content) {
		return row, fmt.Errorf("experiment: fabric fetch at rtt=%v depth=%d did not recover the content", rtt, depth)
	}
	row.Completed = true
	row.ElapsedMs = ms(elapsed)
	row.GoodputKBps = float64(len(fix.Content)) / elapsed.Seconds() / 1024
	return row, nil
}

// FabricResults runs the full sweep and returns the rows, stop-and-wait
// before pipelined at each RTT. Failing the speedup floor at the
// largest RTT is an error: a pipelined ramp that cannot beat
// stop-and-wait 3× over a WAN link is a regression the tracked
// artifact must not absorb silently.
func FabricResults(o Options) ([]FabricRow, error) {
	o = o.withDefaults()
	const batch = 32
	fix, err := BuildSwarmFixture(fabricN(o.N), 256, o.Seed+29)
	if err != nil {
		return nil, err
	}
	rtts := []time.Duration{time.Millisecond, 25 * time.Millisecond, 100 * time.Millisecond}
	var rows []FabricRow
	for _, rtt := range rtts {
		sw, err := runFabricFetch(fix, o.Seed, rtt, 1, batch)
		if err != nil {
			return rows, err
		}
		sw.Speedup = 1
		pl, err := runFabricFetch(fix, o.Seed, rtt, 0, batch)
		if err != nil {
			return rows, err
		}
		if sw.GoodputKBps > 0 {
			pl.Speedup = pl.GoodputKBps / sw.GoodputKBps
		}
		rows = append(rows, sw, pl)
		if rtt == rtts[len(rtts)-1] && pl.Speedup < fabricSpeedupFloor {
			return rows, fmt.Errorf("experiment: fabric pipelined speedup %.2fx at %v RTT, want >= %.1fx over stop-and-wait",
				pl.Speedup, rtt, fabricSpeedupFloor)
		}
	}
	return rows, nil
}

// FabricTable renders fabric rows as an icdbench table.
func FabricTable(rows []FabricRow) Table {
	t := Table{
		ID:     "fabric",
		Title:  "connection fabric: pipelined AIMD ramp vs stop-and-wait over shaped RTTs",
		Header: []string{"rtt", "mode", "depth", "batches", "elapsed", "goodput", "speedup"},
	}
	for _, r := range rows {
		depth := "adaptive"
		if r.Depth > 0 {
			depth = fmt.Sprintf("%d", r.Depth)
		}
		batches := (r.Blocks + r.Batch - 1) / r.Batch
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0fms", r.RTTMs),
			r.Mode,
			depth,
			fmt.Sprintf("~%d", batches),
			fmt.Sprintf("%.0fms", r.ElapsedMs),
			fmt.Sprintf("%.0f KB/s", r.GoodputKBps),
			fmt.Sprintf("%.2fx", r.Speedup),
		})
	}
	return t
}

// WriteFabricJSON writes the rows as a JSON array artifact
// (BENCH_pr8.json in CI).
func WriteFabricJSON(path string, rows []FabricRow) error {
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Fabric is the registry runner: the full RTT × discipline sweep.
func Fabric(o Options) (Table, error) {
	rows, err := FabricResults(o)
	if err != nil {
		return Table{}, err
	}
	return FabricTable(rows), nil
}
