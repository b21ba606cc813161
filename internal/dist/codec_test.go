package dist

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"synapse/internal/perfcount"
	"synapse/internal/scenario"
)

// goldenOutcome has a distinct value in every field, so a permuted or
// dropped field changes the packed bytes.
var goldenOutcome = scenario.Outcome{
	Tx:   0x0102030405060708,
	Busy: [busyWords]time.Duration{2, 3, 4, 5}, // compute, memory, network, storage
	Consumed: perfcount.Counters{
		Instructions: 6, Cycles: 7, StalledFront: 8, StalledBack: 9, FLOPs: 10, Threads: 11, Processes: 12,
		ReadBytes: 13, WriteBytes: 14, ReadOps: 15, WriteOps: 16,
		AllocBytes: 17, FreeBytes: 18, RSS: 19, PeakRSS: 20,
		NetReadBytes: 21, NetWriteBytes: 22,
	},
}

// goldenWords is goldenOutcome's wire record, word by word: the committed
// layout. A change here is a wire-protocol change — old and new workers no
// longer understand each other — and must be deliberate.
var goldenWords = []uint64{
	0x0102030405060708, // tx ns
	2, 3, 4, 5,         // busy ns: compute, memory, network, storage
	0x4018000000000000, // Instructions = 6
	0x401c000000000000, // Cycles = 7
	0x4020000000000000, // StalledFront = 8
	0x4022000000000000, // StalledBack = 9
	0x4024000000000000, // FLOPs = 10
	0x4026000000000000, // Threads = 11
	0x4028000000000000, // Processes = 12
	0x402a000000000000, // ReadBytes = 13
	0x402c000000000000, // WriteBytes = 14
	0x402e000000000000, // ReadOps = 15
	0x4030000000000000, // WriteOps = 16
	0x4031000000000000, // AllocBytes = 17
	0x4032000000000000, // FreeBytes = 18
	0x4033000000000000, // RSS = 19
	0x4034000000000000, // PeakRSS = 20
	0x4035000000000000, // NetReadBytes = 21
	0x4036000000000000, // NetWriteBytes = 22
}

// TestOutcomeCodecGoldenBytes pins the wire record of one hand-built
// outcome byte for byte: 22 little-endian words, 176 bytes. Reordering,
// adding or dropping a field of Outcome or perfcount.Counters fails here
// (or in perfcount's layout test) instead of silently permuting counters
// between a worker and a coordinator built from different commits.
func TestOutcomeCodecGoldenBytes(t *testing.T) {
	if recordSize != 176 || len(goldenWords) != recordWords {
		t.Fatalf("record is %d words / %d bytes, golden has %d words: the wire layout changed",
			recordWords, recordSize, len(goldenWords))
	}
	var want []byte
	for _, w := range goldenWords {
		want = binary.LittleEndian.AppendUint64(want, w)
	}
	got := packOutcomes(nil, []*scenario.Outcome{&goldenOutcome})
	if !bytes.Equal(got, want) {
		t.Errorf("packed record changed\ngot:  %x\nwant: %x", got, want)
	}
	if lead := []byte{8, 7, 6, 5, 4, 3, 2, 1}; !bytes.Equal(got[:8], lead) {
		t.Errorf("first word = %x, want little-endian %x", got[:8], lead)
	}
	back, err := unpackOutcomes(want)
	if err != nil || len(back) != 1 || back[0] != goldenOutcome {
		t.Errorf("unpack(golden) = %+v, %v; want %+v", back, err, goldenOutcome)
	}
}

// randomOutcome draws an outcome that leans on the values a text encoding
// mangles: NaNs with payloads, negative zero, infinities, subnormals, the
// extreme durations, and all-zero busy times.
func randomOutcome(rng *rand.Rand) scenario.Outcome {
	dur := func() time.Duration {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return math.MaxInt64
		case 2:
			return math.MinInt64
		}
		return time.Duration(rng.Uint64())
	}
	num := func() float64 {
		switch rng.Intn(7) {
		case 0:
			return math.Float64frombits(0x7ff8000000000000 | rng.Uint64()>>13) // NaN, random payload
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return math.Inf(rng.Intn(2)*2 - 1)
		case 3:
			return math.SmallestNonzeroFloat64
		}
		return math.Float64frombits(rng.Uint64())
	}
	o := scenario.Outcome{Tx: dur()}
	if rng.Intn(3) > 0 {
		for ai := range o.Busy {
			o.Busy[ai] = dur()
		}
	}
	var f [perfcount.NumFields]float64
	for k := range f {
		f[k] = num()
	}
	o.Consumed.SetFields(&f)
	return o
}

// TestOutcomeCodecRoundTripsBits is the codec's property: unpack(pack(x))
// is x bit for bit, for any batch. Outcomes are compared through their
// packed bytes because NaN != NaN defeats ==.
func TestOutcomeCodecRoundTripsBits(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for round := 0; round < 200; round++ {
		in := make([]*scenario.Outcome, rng.Intn(70))
		for i := range in {
			o := randomOutcome(rng)
			in[i] = &o
		}
		packed := packOutcomes(nil, in)
		if len(packed) != len(in)*recordSize {
			t.Fatalf("packed %d outcomes into %d bytes, want %d", len(in), len(packed), len(in)*recordSize)
		}
		slab, err := unpackOutcomes(packed)
		if err != nil || len(slab) != len(in) {
			t.Fatalf("unpack: %d outcomes, %v; want %d", len(slab), err, len(in))
		}
		for i := range slab {
			a, b := packOutcomes(nil, in[i:i+1]), packOutcomes(nil, []*scenario.Outcome{&slab[i]})
			if !bytes.Equal(a, b) {
				t.Fatalf("round %d outcome %d changed bits\nin:  %x\nout: %x", round, i, a, b)
			}
		}
	}
	for _, n := range []int{1, recordSize - 1, recordSize + 8} {
		if _, err := unpackOutcomes(make([]byte, n)); !errors.Is(err, ErrInvalid) {
			t.Errorf("unpack of %d bytes: %v, want the terminal ErrInvalid", n, err)
		}
	}
}

// TestUnpackAllocatesOneSlab pins the codec's allocation shape: one slab per
// batch on the decode side, whatever the batch size — never one object per
// outcome — and nothing at all on the encode side once its buffer is sized.
func TestUnpackAllocatesOneSlab(t *testing.T) {
	outs := make([]*scenario.Outcome, 64)
	for i := range outs {
		outs[i] = &goldenOutcome
	}
	packed := packOutcomes(nil, outs)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := unpackOutcomes(packed); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("unpacking a %d-outcome batch allocates %v times, want 1 (the slab)", len(outs), allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { packed = packOutcomes(packed[:0], outs) }); allocs != 0 {
		t.Errorf("packing a %d-outcome batch into a reused buffer allocates %v times, want 0", len(outs), allocs)
	}
}

// cannedTransport answers every request with one fixed response body.
type cannedTransport struct {
	contentType string
	body        []byte
}

func (c cannedTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {c.contentType}},
		Body:       io.NopCloser(bytes.NewReader(c.body)),
	}, nil
}

// FuzzStreamDecode drives HTTPWorker.ExecuteStream against arbitrary
// response bytes. Whatever a worker (or the network) sends back, the client
// must not panic, must not hand out nil outcomes, and must not report
// success unless the response was NDJSON and the stream said done with a
// count matching what was delivered and no more outcomes arrived than jobs
// were asked for.
func FuzzStreamDecode(f *testing.F) {
	// The adversarial seeds — truncation, a payload that is not whole
	// records, done-count mismatches, an error line mid-stream, more
	// outcomes than jobs — are committed under testdata/fuzz/.
	two := base64.StdEncoding.EncodeToString(packOutcomes(nil, []*scenario.Outcome{&goldenOutcome, &goldenOutcome}))
	f.Add([]byte(`{"packed":"`+two+`"}`+"\n"+`{"done":true,"n":2}`+"\n"), 2, true) // a whole stream
	f.Add([]byte(`{"packed":"`+two+`"}`), 2, false)                                // a 200 that is not NDJSON
	f.Add([]byte(nil), 0, true)
	f.Fuzz(func(t *testing.T, body []byte, jobs int, ndjson bool) {
		if jobs < 0 || jobs > 1<<12 {
			return
		}
		ct := "application/json"
		if ndjson {
			ct = "application/x-ndjson"
		}
		w := NewHTTPWorker("http://fuzz", &http.Client{Transport: cannedTransport{contentType: ct, body: body}})
		delivered := 0
		err := w.ExecuteStream(context.Background(), &ExecuteRequest{Session: "s", Jobs: make([]scenario.Job, jobs)},
			func(outs []*scenario.Outcome) error {
				for _, o := range outs {
					if o == nil {
						t.Fatal("client delivered a nil outcome")
					}
				}
				delivered += len(outs)
				return nil
			})
		if err != nil {
			return
		}
		// Success: replay the stream independently and hold the client to it.
		if !ndjson {
			t.Fatalf("a response that is not NDJSON succeeded with %d outcomes delivered from %q", delivered, body)
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		if delivered > jobs {
			t.Fatalf("stream succeeded with %d outcomes for %d jobs", delivered, jobs)
		}
		for {
			var line StreamChunk
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("stream succeeded but has no done line: %q", body)
			}
			if line.Error != "" {
				t.Fatalf("stream succeeded past an in-band error line: %q", body)
			}
			if line.Done {
				if line.N != delivered {
					t.Fatalf("stream succeeded with %d outcomes delivered, done line says %d", delivered, line.N)
				}
				return
			}
		}
	})
}

// BenchmarkOutcomeCodec measures the wire codec alone: one op packs and
// unpacks 4096 outcomes in lines of lineRecords, the shape of a worker's
// responses. emulations/s is outcomes through both directions per second,
// ns/outcome its inverse; allocs/op is one slab per line
// (TestUnpackAllocatesOneSlab pins it).
func BenchmarkOutcomeCodec(b *testing.B) {
	const window, batch = 4096, lineRecords
	rng := rand.New(rand.NewSource(7))
	outs := make([]*scenario.Outcome, batch)
	for i := range outs {
		o := randomOutcome(rng)
		outs[i] = &o
	}
	var packed []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := 0; n < window; n += batch {
			packed = packOutcomes(packed[:0], outs)
			slab, err := unpackOutcomes(packed)
			if err != nil || len(slab) != batch {
				b.Fatal(fmt.Errorf("unpack: %d outcomes, %v", len(slab), err))
			}
		}
	}
	b.StopTimer()
	total := float64(b.N) * window
	b.ReportMetric(total/b.Elapsed().Seconds(), "emulations/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/outcome")
}
