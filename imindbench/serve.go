package main

import (
	"fmt"
	"time"

	"github.com/imin-dev/imin/internal/service"
)

// servePass is the outcome of driving the real daemon through a plan.
type servePass struct {
	setupS       []float64 // wall time of each set-up
	results      []result  // one per timed op
	warm         []result  // the last set-up's warm-up ops
	wall         time.Duration
	cpuTicks     int64
	peakRSSMB    float64
	before, last service.StatsResponse // /stats around the timed window
}

// serveRun sets the daemon up `setups` times (timing each: exec, graph
// registered, warm-up done), keeps the last daemon, and sends the timed
// ops over one connection in a closed loop.
func serveRun(cfg config, w workload, p *plan, graphFile string, setups int) (*servePass, error) {
	sp := &servePass{}
	var d *daemon
	var c *client
	defer func() {
		if c != nil {
			c.close()
		}
		if d != nil {
			d.stop()
		}
	}()
	for range setups {
		if d != nil {
			c.close()
			d.stop()
		}
		start := time.Now()
		var err error
		d, err = startDaemon(cfg.imind, cfg.work, graphFile, w.durable)
		if err != nil {
			return nil, err
		}
		c = newClient(d.addr)
		if err := c.register(start.Add(30 * time.Second)); err != nil {
			return nil, fmt.Errorf("register: %w (daemon log: %s)", err, d.log())
		}
		sp.warm = sp.warm[:0]
		for _, o := range p.warmup {
			r := c.run(w, o)
			if r.err != nil {
				return nil, fmt.Errorf("warm-up: %w", r.err)
			}
			sp.warm = append(sp.warm, r)
		}
		sp.setupS = append(sp.setupS, time.Since(start).Seconds())
	}

	var err error
	if sp.before, err = c.stats(); err != nil {
		return nil, err
	}
	cpu0, err := d.cpuTicks()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for _, o := range p.ops {
		sp.results = append(sp.results, c.run(w, o))
	}
	sp.wall = time.Since(start)
	cpu1, err := d.cpuTicks()
	if err != nil {
		return nil, err
	}
	sp.cpuTicks = cpu1 - cpu0
	if sp.last, err = c.stats(); err != nil {
		return nil, err
	}
	if sp.peakRSSMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	return sp, nil
}
