// Package queueing provides closed-form queueing-theory baselines used
// to validate the discrete-event simulator: for memoryless single-node
// workloads the simulated FCFS machine is an M/M/c queue, so the
// simulator's mean wait must match the Erlang-C prediction. Simulation
// papers routinely include exactly this sanity check, and the
// validation experiment (val1) regenerates it.
package queueing

import (
	"fmt"
	"math"
)

// MMc describes an M/M/c queue: Poisson arrivals at rate Lambda,
// exponential service at rate Mu per server, C identical servers.
type MMc struct {
	Lambda float64 // arrivals per second
	Mu     float64 // service completions per second per server
	C      int     // servers
}

// Validate reports the first invalid or unstable parameter, or nil.
func (q MMc) Validate() error {
	switch {
	case q.Lambda <= 0:
		return fmt.Errorf("queueing: lambda %g <= 0", q.Lambda)
	case q.Mu <= 0:
		return fmt.Errorf("queueing: mu %g <= 0", q.Mu)
	case q.C <= 0:
		return fmt.Errorf("queueing: c %d <= 0", q.C)
	}
	if q.Utilization() >= 1 {
		return fmt.Errorf("queueing: unstable: rho = %g >= 1", q.Utilization())
	}
	return nil
}

// Utilization returns rho = lambda / (c*mu).
func (q MMc) Utilization() float64 {
	return q.Lambda / (float64(q.C) * q.Mu)
}

// offeredLoad returns a = lambda/mu (Erlangs).
func (q MMc) offeredLoad() float64 { return q.Lambda / q.Mu }

// ErlangC returns the probability an arriving job must wait (all c
// servers busy), computed with the numerically stable iterative form of
// the Erlang-B recurrence.
func (q MMc) ErlangC() float64 {
	if err := q.Validate(); err != nil {
		return math.NaN()
	}
	a := q.offeredLoad()
	// Erlang-B via the stable recurrence B(0)=1, B(k)=a*B(k-1)/(k+a*B(k-1)).
	b := 1.0
	for k := 1; k <= q.C; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := q.Utilization()
	return b / (1 - rho + rho*b)
}

// MeanWait returns the expected time in queue W_q = C(c,a)/(c*mu-lambda).
func (q MMc) MeanWait() float64 {
	if err := q.Validate(); err != nil {
		return math.NaN()
	}
	return q.ErlangC() / (float64(q.C)*q.Mu - q.Lambda)
}
