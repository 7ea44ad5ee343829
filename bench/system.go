package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"aggview"
	"aggview/internal/constraints"
	"aggview/internal/server"
	"aggview/internal/sqlparser"
)

// Setup is what building one served system cost, by stage. Total is the
// gated setup_s: everything `aggserve -script` does before it listens.
type Setup struct {
	Parse, Load, Track, Total time.Duration
	ScriptBytes               int
}

// Node is one freshly built system behind the serving facade, driven
// through the wire client in-process.
type Node struct {
	Sys    *aggview.System
	Srv    *server.Server
	Client *server.Client
	Setup  Setup
	HeapMB float64 // live heap once built, after a collection
}

// NewNode parses the script, inserts the base rows, declares and tracks
// every view (the steps of cmd/aggserve's loader) and wraps the system
// in a server. spans turns on the flight recorder and request spans;
// the gated runs keep them off. The closure cache is process-global, so
// it is emptied first: every node starts cold.
func NewNode(ctx context.Context, script string, spans bool) (*Node, error) {
	constraints.ResetCloseCache()
	start := time.Now()
	stmts, err := sqlparser.ParseScript(script)
	if err != nil {
		return nil, fmt.Errorf("bench: parsing script: %w", err)
	}
	parsed := time.Now()
	sys := aggview.New()
	for _, st := range stmts {
		switch x := st.(type) {
		case *sqlparser.CreateTable:
			decl := "CREATE TABLE " + x.Name + "(" + strings.Join(x.Columns, ", ") + ")"
			for _, k := range x.Keys {
				decl += " KEY(" + strings.Join(k, ", ") + ")"
			}
			err = sys.Load(decl)
		case *sqlparser.CreateView:
			err = sys.Load("CREATE VIEW " + x.Name + " AS " + x.Query.SQL())
		case *sqlparser.Insert:
			err = sys.InsertContext(ctx, x.Table, x.Rows...)
		default:
			err = fmt.Errorf("unsupported statement %T", st)
		}
		if err != nil {
			return nil, fmt.Errorf("bench: loading script: %w", err)
		}
	}
	loaded := time.Now()
	for _, v := range sys.Views.All() {
		if _, err := sys.TrackViewContext(ctx, v.Name); err != nil {
			return nil, fmt.Errorf("bench: tracking view %s: %w", v.Name, err)
		}
	}
	done := time.Now()

	cfg := server.Config{CacheSize: cacheCapacity, FlightRecorder: -1, SlowLogSize: -1}
	if spans {
		cfg.FlightRecorder = 0
	}
	srv := server.New(sys, cfg)
	return &Node{
		Sys:    sys,
		Srv:    srv,
		Client: &server.Client{Base: "http://bench", HTTP: &server.InProcessExec{S: srv}},
		Setup: Setup{
			Parse: parsed.Sub(start), Load: loaded.Sub(parsed), Track: done.Sub(loaded),
			Total: done.Sub(start), ScriptBytes: len(script),
		},
		HeapMB: heapMB(),
	}, nil
}

// Close detaches the server so the node can be collected.
func (n *Node) Close() { n.Srv.Close() }

// heapMB is the live heap after a collection, in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
