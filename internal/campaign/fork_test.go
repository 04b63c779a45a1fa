package campaign

import (
	"context"
	"path/filepath"
	"testing"

	"ft2/internal/arch"
	"ft2/internal/fault"
	"ft2/internal/model"
)

// familySpec is baseSpec retargeted at a specific simulated model family.
func familySpec(t *testing.T, name string, method arch.Method) Spec {
	t.Helper()
	spec := baseSpec(t, method)
	cfg, err := model.ConfigByName(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.ModelCfg = cfg
	return spec
}

var simFamilies = []string{"opt-2.7b-sim", "gptj-6b-sim", "llama2-7b-sim"}

// TestCheckpointStrideDefault: an explicit positive stride wins; otherwise
// the stride defaults to ⌈√GenTokens⌉.
func TestCheckpointStrideDefault(t *testing.T) {
	spec := baseSpec(t, arch.MethodNone) // GenTokens = 16
	if got := spec.checkpointStride(); got != 4 {
		t.Errorf("default stride = %d, want ⌈√16⌉ = 4", got)
	}
	spec.CheckpointStride = 3
	if got := spec.checkpointStride(); got != 3 {
		t.Errorf("explicit stride = %d, want 3", got)
	}
}

// TestForkTrialEquivalenceForcedSites: a forked trial must be bit-identical
// to a from-scratch trial for the same fault site — same outcome kind, SDC
// classification, and correction counters — at the first, a middle, and the
// last decode step, for every family and protection path, at stride 1 and a
// deliberately misaligned coarse stride.
func TestForkTrialEquivalenceForcedSites(t *testing.T) {
	for _, fam := range simFamilies {
		for _, method := range []arch.Method{arch.MethodNone, arch.MethodFT2, arch.MethodRanger} {
			t.Run(fam+"/"+method.String(), func(t *testing.T) {
				for _, stride := range []int{1, 6} {
					spec := familySpec(t, fam, method)
					spec.CheckpointStride = stride
					base := model.MustNew(spec.ModelCfg, spec.ModelSeed, spec.DType)
					golden, err := goldenOutputs(context.Background(), spec, base)
					if err != nil {
						t.Fatal(err)
					}
					forks, err := buildForkStore(context.Background(), spec, base)
					if err != nil {
						t.Fatal(err)
					}
					if forks == nil {
						t.Fatal("buildForkStore returned nil with forking enabled")
					}
					forked := newTrialRunner(spec, base, golden, forks)
					scratch := newTrialRunner(spec, base, golden, nil)

					last := spec.Dataset.GenTokens - 1
					kind := spec.ModelCfg.Family.LayerKinds()[0]
					for _, step := range []int{0, 1, last / 2, last} {
						for idx := range spec.Dataset.Inputs {
							site := fault.Site{
								Step:  step,
								Layer: model.LayerRef{Block: 0, Kind: kind},
								Elem:  3,
								Bits:  []int{14},
							}
							a, aerr := forked.runWithSite(context.Background(), idx, site)
							forked.m.ClearHooks()
							b, berr := scratch.runWithSite(context.Background(), idx, site)
							scratch.m.ClearHooks()
							if aerr != nil || berr != nil {
								t.Fatalf("stride %d step %d input %d: errors %v / %v", stride, step, idx, aerr, berr)
							}
							if a != b {
								t.Errorf("stride %d step %d input %d: forked %+v != scratch %+v",
									stride, step, idx, a, b)
							}
						}
					}
				}
			})
		}
	}
}

// TestForkedCampaignBitIdentical: a full campaign with forking must produce
// exactly the same Result as the same campaign with NoFork, for each family.
func TestForkedCampaignBitIdentical(t *testing.T) {
	for _, fam := range simFamilies {
		t.Run(fam, func(t *testing.T) {
			spec := familySpec(t, fam, arch.MethodFT2)
			spec.Trials = 40
			forked, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			spec.NoFork = true
			scratch, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !statsEqual(forked, scratch) {
				t.Errorf("forked result differs from no-fork: %+v vs %+v", forked, scratch)
			}
		})
	}
}

// TestForkedCampaignBitIdenticalDMR: the DMR escape hatch resumes its
// detection counter across forks too.
func TestForkedCampaignBitIdenticalDMR(t *testing.T) {
	spec := baseSpec(t, arch.MethodNone)
	spec.Policy = dmrPolicy(spec.ModelCfg.Family)
	spec.Trials = 20
	forked, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.NoFork = true
	scratch, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !statsEqual(forked, scratch) {
		t.Errorf("forked DMR result differs from no-fork: %+v vs %+v", forked, scratch)
	}
}

// TestForkFingerprintInvariant: NoFork and CheckpointStride are execution
// knobs — they must not change the journal fingerprint, or -resume could not
// interoperate across forked and unforked runs.
func TestForkFingerprintInvariant(t *testing.T) {
	spec := baseSpec(t, arch.MethodFT2)
	fp := spec.Fingerprint()
	spec.NoFork = true
	spec.CheckpointStride = 3
	if got := spec.Fingerprint(); got != fp {
		t.Errorf("fingerprint changed with fork knobs: %s vs %s", got, fp)
	}
}

// TestForkJournalCrossover: a campaign journaled under NoFork and resumed
// with forking enabled (and more trials) must match an uninterrupted forked
// run — the fork→resume→no-fork interop the journal fingerprint guarantees.
func TestForkJournalCrossover(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")

	ref := baseSpec(t, arch.MethodFT2)
	ref.Trials = 30
	want, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: first half of the trials, forking disabled.
	j1, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	half := ref
	half.NoFork = true
	half.Trials = 15
	half.Journal = j1
	if _, err := Run(half); err != nil {
		t.Fatal(err)
	}
	j1.Close()

	// Phase 2: resume the full campaign with forking on.
	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	full := ref
	full.Journal = j2
	got, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	if got.Completed != ref.Trials {
		t.Fatalf("resumed campaign completed %d/%d trials", got.Completed, ref.Trials)
	}
	if !statsEqual(want, got) {
		t.Errorf("no-fork→fork resume differs from straight run: %+v vs %+v", got, want)
	}
}

// TestForkStoreMemoryBound: the number of retained checkpoints and their
// total KV payload must follow the documented stride bound.
func TestForkStoreMemoryBound(t *testing.T) {
	spec := baseSpec(t, arch.MethodNone)
	n := spec.Dataset.GenTokens
	base := model.MustNew(spec.ModelCfg, spec.ModelSeed, spec.DType)
	var prev int
	for _, stride := range []int{1, 4, 8} {
		spec.CheckpointStride = stride
		fs, err := buildForkStore(context.Background(), spec, base)
		if err != nil {
			t.Fatal(err)
		}
		wantPts := (n - 1 + stride - 1) / stride // ⌈(GenTokens−1)/stride⌉
		wantBytes := 0
		for i, in := range spec.Dataset.Inputs {
			pts := fs.inputs[i].points
			if len(pts) != wantPts {
				t.Fatalf("stride %d input %d: %d checkpoints, want %d", stride, i, len(pts), wantPts)
			}
			for j, p := range pts {
				step := 1 + j*stride
				if p.snap.NextStep() != step {
					t.Errorf("stride %d input %d point %d: NextStep %d, want %d",
						stride, i, j, p.snap.NextStep(), step)
				}
				// Before step s the cache holds the prefill rows plus one row
				// per completed decode step: len(prompt) + (s − 1).
				rows := len(in.Prompt) + step - 1
				if p.snap.Rows() != rows {
					t.Errorf("stride %d input %d point %d: rows %d, want %d",
						stride, i, j, p.snap.Rows(), rows)
				}
				wantBytes += spec.ModelCfg.Blocks * 2 * rows * spec.ModelCfg.Hidden * 4
			}
		}
		if got := fs.MemoryBytes(); got != wantBytes {
			t.Errorf("stride %d: MemoryBytes %d, want %d", stride, got, wantBytes)
		}
		if prev > 0 && fs.MemoryBytes() >= prev {
			t.Errorf("stride %d retains %d bytes, not less than finer stride's %d",
				stride, fs.MemoryBytes(), prev)
		}
		prev = fs.MemoryBytes()
	}
}

// TestBuildForkStoreDisabled: NoFork and degenerate generations yield no
// store, and the campaign still runs (every trial from scratch).
func TestBuildForkStoreDisabled(t *testing.T) {
	spec := baseSpec(t, arch.MethodNone)
	spec.NoFork = true
	if fs, err := buildForkStore(context.Background(), spec, nil); err != nil || fs != nil {
		t.Errorf("NoFork: store %v, err %v; want nil, nil", fs, err)
	}
	spec.NoFork = false
	spec.Dataset.GenTokens = 1
	spec.Dataset.AnswerLo, spec.Dataset.AnswerHi = 0, 1
	if fs, err := buildForkStore(context.Background(), spec, nil); err != nil || fs != nil {
		t.Errorf("GenTokens=1: store %v, err %v; want nil, nil", fs, err)
	}
}
