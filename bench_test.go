// Benchmarks regenerating the paper's evaluation, one per table/figure.
// Custom metrics carry the model-derived numbers (cycles, µs, fps) so the
// paper's quantities appear directly in `go test -bench` output next to
// the host-CPU wall times.
package repro_test

import (
	"testing"

	"repro/internal/bfv"
	"repro/internal/eval"
	"repro/internal/ff"
	"repro/internal/hera"
	"repro/internal/hhe"
	"repro/internal/hw"
	"repro/internal/hw/area"
	"repro/internal/pasta"
	"repro/internal/rlwe"
	"repro/internal/soc"
)

// BenchmarkTable1Area regenerates the Table I resource counts.
func BenchmarkTable1Area(b *testing.B) {
	var r area.FPGA
	for i := 0; i < b.N; i++ {
		r = area.Resources(area.Config{T: 32, W: 17})
	}
	b.ReportMetric(float64(r.LUT), "LUT")
	b.ReportMetric(float64(r.FF), "FF")
	b.ReportMetric(float64(r.DSP), "DSP")
}

// BenchmarkTable2CyclesPasta3 reproduces the PASTA-3 row of Table II:
// 4,955 cycles ⇒ 66.1 µs FPGA / 4.96 µs ASIC in the paper.
func BenchmarkTable2CyclesPasta3(b *testing.B) { benchAccelCycles(b, pasta.Pasta3) }

// BenchmarkTable2CyclesPasta4 reproduces the PASTA-4 row of Table II:
// 1,591 cycles ⇒ 21.2 µs FPGA / 1.59 µs ASIC in the paper.
func BenchmarkTable2CyclesPasta4(b *testing.B) { benchAccelCycles(b, pasta.Pasta4) }

func benchAccelCycles(b *testing.B, v pasta.Variant) {
	par := pasta.MustParams(v, ff.P17)
	acc, err := hw.NewAccelerator(par, pasta.KeyFromSeed(par, "bench"))
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := acc.KeyStream(uint64(i), 0)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Stats.Cycles
	}
	avg := float64(cycles) / float64(b.N)
	b.ReportMetric(avg, "cycles/block")
	b.ReportMetric(avg/hw.FPGAHz*1e6, "FPGA-µs")
	b.ReportMetric(avg/hw.ASICHz*1e6, "ASIC-µs")
	b.ReportMetric(avg/float64(par.T), "cycles/elem")
}

// BenchmarkTable2SoCPasta4 reproduces the RISC-V column of Table II
// (paper: 15.9 µs per block at 100 MHz) via the full SoC co-simulation.
func BenchmarkTable2SoCPasta4(b *testing.B) {
	par := pasta.MustParams(pasta.Pasta4, ff.P17)
	key := pasta.KeyFromSeed(par, "bench")
	msg := ff.NewVec(2 * par.T)
	var perBlock int64
	for i := 0; i < b.N; i++ {
		_, stats, err := soc.EncryptBlocks(par, key, uint64(i), msg)
		if err != nil {
			b.Fatal(err)
		}
		perBlock = stats.CyclesPerBlock()
	}
	b.ReportMetric(float64(perBlock), "cycles/block")
	b.ReportMetric(hw.Microseconds(perBlock, hw.RISCVHz), "RISCV-µs")
}

// BenchmarkTable2CPUSoftware measures this reproduction's software PASTA
// on the host CPU — the Table II "CPU" datapoint ([9] reports 1,363,339
// Xeon cycles for PASTA-4).
func BenchmarkTable2CPUSoftwarePasta3(b *testing.B) { benchSoftware(b, pasta.Pasta3) }
func BenchmarkTable2CPUSoftwarePasta4(b *testing.B) { benchSoftware(b, pasta.Pasta4) }

func benchSoftware(b *testing.B, v pasta.Variant) {
	par := pasta.MustParams(v, ff.P17)
	c, err := pasta.NewCipher(par, pasta.KeyFromSeed(par, "bench"))
	if err != nil {
		b.Fatal(err)
	}
	ks := ff.NewVec(par.T)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.KeyStreamInto(ks, uint64(i), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(par.T)*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
}

// BenchmarkTable2CPUSoftwareParallel measures the worker-pool keystream
// fan-out over a 64-block message; run with -cpu 1,2,4 to see the
// multi-core scaling of the CTR-independent blocks.
func BenchmarkTable2CPUSoftwareParallel(b *testing.B) {
	par := pasta.MustParams(pasta.Pasta4, ff.P17)
	c, err := pasta.NewCipher(par, pasta.KeyFromSeed(par, "bench"))
	if err != nil {
		b.Fatal(err)
	}
	const blocks = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.KeyStreamBlocks(uint64(i), 0, blocks)
	}
	b.ReportMetric(float64(blocks*par.T)*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
}

// BenchmarkTable3PKEBaseline runs the prior works' workload: RLWE
// public-key encryption at N = 2^13 with three moduli (the ≈2^19
// multiplications of Sec. I-A), on the lazy-NTT allocation-free path
// (EncryptInto) — the same measurement hhebench's Table III "TW-SW" row
// reports. Compare its per-element cost against
// BenchmarkTable2CyclesPasta4's.
func BenchmarkTable3PKEBaseline(b *testing.B) {
	ctx, pk, pt := pkeBaselineSetup(b)
	ct := ctx.NewCiphertext()
	g := rlwe.NewPRNG("bench-pke", []byte{1})
	ctx.EncryptInto(pk, pt, g, ct) // warm the scratch pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.EncryptInto(pk, pt, g, ct)
	}
	perEnc := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(perEnc*1e6, "µs/enc")
	b.ReportMetric(perEnc*1e6/4096, "µs/elem(2^12)")
}

// BenchmarkBFVEncrypt is the raw BFV public-key encryption number at
// the paper's client parameters; run with -cpu 1,2,4 to see the RNS
// limb fan-out of the default (GOMAXPROCS) context scale.
func BenchmarkBFVEncrypt(b *testing.B) {
	ctx, pk, pt := pkeBaselineSetup(b)
	ct := ctx.NewCiphertext()
	g := rlwe.NewPRNG("bench-bfv", []byte{2})
	ctx.EncryptInto(pk, pt, g, ct)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.EncryptInto(pk, pt, g, ct)
	}
}

// BenchmarkBFVEncryptMany amortizes setup over a 16-ciphertext batch
// (sampling sequential, transforms fanned across cores).
func BenchmarkBFVEncryptMany(b *testing.B) {
	ctx, pk, pt := pkeBaselineSetup(b)
	const batch = 16
	pts := make([]bfv.Plaintext, batch)
	for i := range pts {
		pts[i] = pt
	}
	g := rlwe.NewPRNG("bench-many", []byte{3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.EncryptMany(pk, pts, g)
	}
	perEnc := b.Elapsed().Seconds() / float64(b.N) / batch
	b.ReportMetric(perEnc*1e6, "µs/enc")
}

func pkeBaselineSetup(b *testing.B) (*bfv.Context, *bfv.PublicKey, bfv.Plaintext) {
	b.Helper()
	par, err := bfv.NewParams(8192, 55, 3, 65537)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := bfv.NewContext(par)
	if err != nil {
		b.Fatal(err)
	}
	g := rlwe.NewPRNG("bench-pke", []byte{1})
	_, pk, _ := ctx.KeyGen(g)
	pt := ctx.NewPlaintext()
	for i := range pt {
		pt[i] = uint64(i) % par.T
	}
	return ctx, pk, pt
}

// BenchmarkFig7Breakdown regenerates the module-wise area shares.
func BenchmarkFig7Breakdown(b *testing.B) {
	var d eval.Fig7Data
	var err error
	for i := 0; i < b.N; i++ {
		d, err = eval.Fig7()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.FPGA[area.UnitMatGen], "MatGen-%")
	b.ReportMetric(d.FPGA[area.UnitDataGen], "SHAKE-%")
}

// BenchmarkFig8Frames regenerates the application benchmark: QQVGA
// frames per second at maximum 5G bandwidth for this work vs RISE
// (paper: TW ≫ RISE ≈ 70 fps).
func BenchmarkFig8Frames(b *testing.B) {
	var rows []eval.Fig8Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = eval.Fig8(1.59, false)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].TWFPS, "TW-QQVGA-fps")
	b.ReportMetric(rows[0].RISEFPS, "RISE-QQVGA-fps")
	b.ReportMetric(rows[0].Advantage, "advantage")
}

// BenchmarkClaimsSpeedup regenerates the §IV-C speedup claims
// (paper: 857–3,439× cycles, 43–171× wall clock).
func BenchmarkClaimsSpeedup(b *testing.B) {
	var c eval.Claims
	for i := 0; i < b.N; i++ {
		t2, err := eval.Table2(1)
		if err != nil {
			b.Fatal(err)
		}
		c = eval.ComputeClaims(t2)
	}
	b.ReportMetric(c.CycleReductionP3, "cycle-reduction-P3")
	b.ReportMetric(c.CycleReductionP4, "cycle-reduction-P4")
	b.ReportMetric(c.SpeedupVsRISE, "speedup-vs-RISE")
}

// BenchmarkHHETranscipher measures the server-side homomorphic PASTA
// decryption (the packed evaluator the serving tier runs) on the reduced
// instance (protocol of Fig. 1; out of the paper's hardware scope but
// part of the system).
func BenchmarkHHETranscipher(b *testing.B) {
	par, err := hhe.NewToyParams(2, 1)
	if err != nil {
		b.Fatal(err)
	}
	key := pasta.KeyFromSeed(par.Pasta, "bench")
	client, err := hhe.NewClient(par, key, []byte{7})
	if err != nil {
		b.Fatal(err)
	}
	keys, err := client.PackedEvalKeys()
	if err != nil {
		b.Fatal(err)
	}
	server, err := hhe.NewPackedServer(par, client.Context(), keys)
	if err != nil {
		b.Fatal(err)
	}
	ct, err := client.EncryptBlock(1, 0, ff.Vec{11, 22})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := server.Transcipher(1, 0, ct); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchemesHERA regenerates the §VI cross-scheme row: the
// HERA-style datapath needs ≈285 cycles per 16-element block.
func BenchmarkSchemesHERA(b *testing.B) {
	hp := hera.MustParams(5, ff.P17)
	acc, err := hw.NewHeraAccelerator(hp, hera.KeyFromSeed(hp, "bench"))
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := acc.KeyStream(uint64(i), 0)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Stats.Cycles
	}
	b.ReportMetric(float64(cycles), "cycles/block")
	b.ReportMetric(float64(cycles)/hera.StateSize, "cycles/elem")
}

// BenchmarkBitwidthStudy regenerates the §IV-A bitlength comparison.
func BenchmarkBitwidthStudy(b *testing.B) {
	var rows []eval.BitwidthRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = eval.BitwidthStudy()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Omega == 33 {
			b.ReportMetric(float64(r.SimCycles), "cycles-w33")
		}
		if r.Omega == 17 {
			b.ReportMetric(float64(r.SimCycles), "cycles-w17")
		}
	}
}

// BenchmarkCommunicationExpansion regenerates the Sec. I expansion
// measurement for a 32-element payload.
func BenchmarkCommunicationExpansion(b *testing.B) {
	var rows []eval.ExpansionRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = eval.Expansion(32)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[2].Expansion, "FHE-expansion")
	b.ReportMetric(rows[1].Expansion, "HHE-expansion")
}

// BenchmarkSoCIRQDriver measures the interrupt-driven SoC flow; compare
// active cycles with BenchmarkTable2SoCPasta4 (polling).
func BenchmarkSoCIRQDriver(b *testing.B) {
	par := pasta.MustParams(pasta.Pasta4, ff.P17)
	key := pasta.KeyFromSeed(par, "bench")
	msg := ff.NewVec(par.T)
	var active, asleep int64
	for i := 0; i < b.N; i++ {
		_, stats, err := soc.EncryptBlocksIRQ(par, key, uint64(i), msg)
		if err != nil {
			b.Fatal(err)
		}
		active = stats.CoreCycles - stats.WaitCycles
		asleep = stats.WaitCycles
	}
	b.ReportMetric(float64(active), "active-cycles")
	b.ReportMetric(float64(asleep), "wfi-cycles")
}
