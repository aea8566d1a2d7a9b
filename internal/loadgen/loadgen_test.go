package loadgen

import (
	"testing"

	"trust/internal/device"
	"trust/internal/ftdc"
)

func TestRunDirectPageRequest(t *testing.T) {
	res, err := Run(Config{Devices: 2, Transport: Direct, Mode: PageRequest, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops < 1 || res.OpsPerSec <= 0 || res.NsPerOp <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.P50Ns <= 0 || res.P99Ns < res.P50Ns {
		t.Fatalf("latency percentiles inconsistent: %+v", res)
	}
	if res.Name != "page-request_direct_2" {
		t.Fatalf("scenario name %q", res.Name)
	}
}

func TestRunHTTPBinaryLogin(t *testing.T) {
	if testing.Short() {
		t.Skip("HTTP login scenario is slow")
	}
	res, err := Run(Config{Devices: 2, Transport: HTTPBinary, Mode: Login, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops < 1 || res.OpsPerSec <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

func TestRunLossyPageRequest(t *testing.T) {
	res, err := Run(Config{
		Devices: 2, Transport: Direct, Mode: PageRequest, Seed: 1,
		Faults:        device.FaultProfile{DropRate: 0.2},
		RetryAttempts: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops < 1 || res.OpsPerSec <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.Name != "page-request_direct_2_drop20r4" {
		t.Fatalf("scenario name %q", res.Name)
	}
}

func TestRunDirectResume(t *testing.T) {
	res, err := Run(Config{Devices: 2, Transport: Direct, Mode: Resume, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops < 1 || res.OpsPerSec <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.Name != "login-resume_direct_2" {
		t.Fatalf("scenario name %q", res.Name)
	}
}

func TestRunLossyChurn(t *testing.T) {
	res, err := Run(Config{
		Devices: 2, Transport: Direct, Mode: Churn, Seed: 1,
		Faults:        device.FaultProfile{DropRate: 0.2},
		RetryAttempts: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops < 1 || res.OpsPerSec <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.Name != "login-churn_direct_2_drop20r4" {
		t.Fatalf("scenario name %q", res.Name)
	}
}

// TestRunStreamBatchRows pins what a batch row reports: ops and ns per
// page request, but p50 and p99 of whole batch round trips. With one
// device each round trip of 16 requests takes about 16 times the
// per-request ns/op, so its median sits far above ns/op; a p50
// divided by the batch size would sit near it.
func TestRunStreamBatchRows(t *testing.T) {
	const batch = 16
	res, err := Run(Config{Devices: 1, Transport: Stream, Mode: PageRequest, Seed: 1, Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "page-request-batch16_stream_1" || res.Ops < batch || res.Ops%batch != 0 {
		t.Fatalf("batch row %q counts %d ops, want a multiple of %d requests", res.Name, res.Ops, batch)
	}
	if res.P50Ns < 4*res.NsPerOp || res.P99Ns < res.P50Ns {
		t.Fatalf("p50 %d ns, p99 %d ns against %d ns per request: the percentiles are not of %d-request round trips",
			res.P50Ns, res.P99Ns, res.NsPerOp, batch)
	}
}

func TestRunRejectsEmptyFleet(t *testing.T) {
	if _, err := Run(Config{Devices: 0}); err == nil {
		t.Fatal("zero-device config accepted")
	}
}

func TestNewReportCarriesParallelismMetadata(t *testing.T) {
	rep := NewReport([]Result{{Name: "x"}})
	if rep.GoMaxProcs < 1 || rep.NumCPU < 1 || len(rep.Scenarios) != 1 {
		t.Fatalf("report metadata: %+v", rep)
	}
}

// TestRunFTDCCapture: with FTDCEvery set, Run returns a parsable FTDC
// capture whose accepted counter accounts for every measured op.
func TestRunFTDCCapture(t *testing.T) {
	res, err := Run(Config{Devices: 2, Transport: Direct, Mode: PageRequest, Seed: 1, FTDCEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Capture) == 0 {
		t.Fatal("no capture bytes")
	}
	data, err := ftdc.Read(res.Capture)
	if err != nil {
		t.Fatalf("capture does not parse: %v", err)
	}
	if data.Rows() == 0 {
		t.Fatal("capture holds no samples")
	}
	accepted := data.Col("accepted")
	if accepted == nil {
		t.Fatal("capture schema lacks the accepted column")
	}
	// Monotone counter sampled mid-run: the last sample can trail the
	// final op count but never exceed total accepted work, and it must
	// be nondecreasing.
	for i := 1; i < len(accepted); i++ {
		if accepted[i] < accepted[i-1] {
			t.Fatalf("accepted counter went backwards at row %d: %d -> %d", i, accepted[i-1], accepted[i])
		}
	}
	if last := accepted[len(accepted)-1]; last <= 0 {
		t.Fatalf("accepted never advanced: %d", last)
	}
}
