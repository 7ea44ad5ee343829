// Package obs is the waitleak fixture for the observability layer: a
// monitor-goroutine pattern, with and without its join (Stop closes done
// and blocks on stopped).
package obs

import "time"

// sampler is a ticker-driven monitor: Start launches a goroutine whose
// ownership transfers to Stop.
type sampler struct {
	done    chan struct{}
	stopped chan struct{}
	sample  func()
}

// StartLeaky launches a monitor nobody can ever join: the function has
// no join construct and no ownership-transfer justification.
func (s *sampler) StartLeaky() {
	go s.loop() // want `no join in the function`
}

// Start is the sanctioned pattern: the launch itself carries the
// aggvet justification because the join lives in Stop, not here.
func (s *sampler) Start() {
	s.done = make(chan struct{})
	s.stopped = make(chan struct{})
	//aggvet:waitleak monitor goroutine: ownership transfers to Stop, which closes done and joins via the stopped channel
	go s.loop()
}

// Stop joins the monitor: close done, then block until loop exits.
func (s *sampler) Stop() {
	close(s.done)
	<-s.stopped
}

func (s *sampler) loop() {
	defer close(s.stopped)
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			s.sample()
		}
	}
}

// FireAndForget launches an unjoined counter flusher; reported even
// though the goroutine is short-lived — lifetime is not the contract,
// joining is.
func FireAndForget(flush func()) {
	go flush() // want `no join in the function`
}

// InlineJoin snapshots on a worker goroutine and waits for the result;
// the channel receive is the join.
func InlineJoin(snapshot func() string) string {
	ch := make(chan string, 1)
	go func() { ch <- snapshot() }()
	return <-ch
}

// ringMonitor mirrors a flight-recorder drainer: a goroutine that
// periodically snapshots the ring until closed.
type ringMonitor struct {
	done    chan struct{}
	stopped chan struct{}
	drain   func()
}

// StartDrainLeaky launches the drainer with no join construct and no
// ownership-transfer justification: flagged.
func (m *ringMonitor) StartDrainLeaky() {
	go m.drainLoop() // want `no join in the function`
}

// StartDrain is the sanctioned ring-buffer monitor: the launch carries
// the justification because Close owns the join.
func (m *ringMonitor) StartDrain() {
	m.done = make(chan struct{})
	m.stopped = make(chan struct{})
	//aggvet:waitleak ring-buffer monitor: ownership transfers to Close, which closes done and joins via the stopped channel
	go m.drainLoop()
}

// Close joins the drainer.
func (m *ringMonitor) Close() {
	close(m.done)
	<-m.stopped
}

func (m *ringMonitor) drainLoop() {
	defer close(m.stopped)
	for {
		select {
		case <-m.done:
			return
		default:
			m.drain()
		}
	}
}
