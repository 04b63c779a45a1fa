// Package cliutil factors the flag surface and signal plumbing the five ft2
// command-line tools share: the run-level -timeout deadline with
// SIGINT/SIGTERM cancellation (ft2serve, ft2router, ft2policy; ft2bench and
// ft2inject through the campaign set), the resumable campaign's
// -trial-timeout/-journal/-resume/-no-fork/-checkpoint-stride quintet with
// its journal lifecycle and interrupt notices (ft2bench, ft2inject), the
// -dtype flag (ft2serve, ft2inject, ft2policy), and the -pprof flag of the two
// HTTP servers (ft2serve, ft2router).
package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ft2/internal/campaign"
	"ft2/internal/experiments"
	"ft2/internal/numerics"
)

// Base holds the flags every ft2 binary shares.
type Base struct {
	// Timeout bounds the whole invocation (0 = none).
	Timeout time.Duration
}

// RegisterBase registers the shared base flags on fs.
func RegisterBase(fs *flag.FlagSet) *Base {
	b := &Base{}
	b.register(fs)
	return b
}

func (b *Base) register(fs *flag.FlagSet) {
	fs.DurationVar(&b.Timeout, "timeout", 0, "deadline for the whole run (0 = none)")
}

// Context returns a run context canceled by SIGINT/SIGTERM and, when
// -timeout is set, by its deadline. A second signal force-kills the
// process (signal delivery reverts to the default once the first fires).
// The caller must defer the returned cancel.
func (b *Base) Context() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	if b.Timeout <= 0 {
		return ctx, stop
	}
	tctx, cancel := context.WithTimeout(ctx, b.Timeout)
	return tctx, func() { cancel(); stop() }
}

// dtypeValue is -dtype's flag.Value: Set accepts exactly the names
// numerics.DType prints, so an unknown name is the flag package's usage
// error (exit 2 under flag.ExitOnError) instead of a silent fp16.
type dtypeValue numerics.DType

func (d *dtypeValue) String() string { return numerics.DType(*d).String() }

func (d *dtypeValue) Set(name string) error {
	for _, known := range []numerics.DType{numerics.FP16, numerics.FP32} {
		if name == known.String() {
			*d = dtypeValue(known)
			return nil
		}
	}
	return fmt.Errorf("want %v or %v", numerics.FP16, numerics.FP32)
}

// RegisterDType registers -dtype (default fp16) on fs.
func RegisterDType(fs *flag.FlagSet) *numerics.DType {
	d := new(numerics.DType)
	fs.Var((*dtypeValue)(d), "dtype", "activation dtype: fp16, fp32")
	return d
}

// Pprof is the -pprof flag: net/http/pprof's profiles on the server's own
// listener, off by default.
type Pprof struct{ on bool }

// RegisterPprof registers -pprof on fs.
func RegisterPprof(fs *flag.FlagSet) *Pprof {
	p := &Pprof{}
	fs.BoolVar(&p.on, "pprof", false, "serve net/http/pprof's profiles under /debug/pprof/")
	return p
}

// Handler returns h, behind a mux that serves net/http/pprof under
// /debug/pprof/ when -pprof is set.
func (p *Pprof) Handler(h http.Handler) http.Handler {
	if !p.on {
		return h
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}

// Interrupted reports whether err is the cancellation family — a signal or
// an expired -timeout — as opposed to a real failure.
func Interrupted(err error) bool {
	return err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// Campaign extends Base with the resumable-campaign flags.
type Campaign struct {
	Base
	// TrialTimeout arms the per-trial no-progress watchdog (0 = off).
	TrialTimeout time.Duration
	// JournalPath checkpoints classified trials to a JSONL journal.
	JournalPath string
	// Resume replays the journal and runs only the missing trials.
	Resume bool
	// NoFork disables golden-checkpoint forking.
	NoFork bool
	// CheckpointStride overrides the golden-checkpoint stride (0 = default).
	CheckpointStride int
}

// RegisterCampaign registers the base flags plus the campaign quintet on fs.
func RegisterCampaign(fs *flag.FlagSet) *Campaign {
	c := &Campaign{}
	c.Base.register(fs)
	fs.DurationVar(&c.TrialTimeout, "trial-timeout", 0,
		"abort a trial with no token progress for this long (0 = no watchdog)")
	fs.StringVar(&c.JournalPath, "journal", "",
		"checkpoint classified trials to this JSONL journal")
	fs.BoolVar(&c.Resume, "resume", false,
		"replay the journal and run only the missing trials (requires -journal)")
	fs.BoolVar(&c.NoFork, "no-fork", false,
		"disable golden-checkpoint forking: re-run every trial's fault-free prefix from scratch (bit-identical, slower)")
	fs.IntVar(&c.CheckpointStride, "checkpoint-stride", 0,
		"decode steps between golden checkpoints (0 = per-cell ceil(sqrt(GenTokens)) default)")
	return c
}

// Validate checks cross-flag consistency.
func (c *Campaign) Validate() error {
	if c.Resume && c.JournalPath == "" {
		return errors.New("-resume requires -journal")
	}
	return nil
}

// OpenJournal opens (or, with -resume, reopens) the journal named by the
// flags. Returns (nil, nil) when no journal was requested; otherwise the
// caller owns the Close.
func (c *Campaign) OpenJournal() (*campaign.Journal, error) {
	if c.JournalPath == "" {
		return nil, nil
	}
	return campaign.OpenJournal(c.JournalPath, c.Resume)
}

// ApplyParams copies the campaign flags into an experiment parameter set.
func (c *Campaign) ApplyParams(p *experiments.Params, j *campaign.Journal) {
	p.TrialTimeout = c.TrialTimeout
	p.NoFork = c.NoFork
	p.CheckpointStride = c.CheckpointStride
	p.Journal = j
}

// ApplySpec copies the campaign flags into a single campaign spec.
func (c *Campaign) ApplySpec(s *campaign.Spec, j *campaign.Journal) {
	s.TrialTimeout = c.TrialTimeout
	s.NoFork = c.NoFork
	s.CheckpointStride = c.CheckpointStride
	s.Journal = j
}

// InterruptNotice prints the standard stderr hint after an interrupted
// campaign — how to resume, or how to make the run resumable — and returns
// the conventional exit code for a signal-terminated run (130).
func (c *Campaign) InterruptNotice(prog string, err error) int {
	if c.JournalPath != "" {
		fmt.Fprintf(os.Stderr, "%s: interrupted (%v); journal %s flushed — re-run with -resume to continue\n",
			prog, err, c.JournalPath)
	} else {
		fmt.Fprintf(os.Stderr, "%s: interrupted (%v); no journal — re-run with -journal/-resume to checkpoint\n",
			prog, err)
	}
	return 130
}
