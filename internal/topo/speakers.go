// Route-exchange integration: the "speakers" directive turns every router
// in the topology into a route-exchange participant (internal/bootstrap),
// and "linkdown"/"linkup" inject the faults the protocol reconverges
// around.
//
//	speakers [refresh=50ms] [hold=150ms] [horizon=1s] [maxmetric=16]
//	linkdown R1 R2 at 10ms [silent]   # kill the R1–R2 link (both directions)
//	linkup   R1 R2 at 30ms            # revive it
//
// With speakers enabled, every router's node.Spec gets Speaker set: its
// statically configured routes become its originated set and everything
// else is learned in band, over the router↔router links (node.Build wires
// the F_ctl control demux and the neighbor send path). Refresh cycles are
// scheduled from t=0 every refresh= up to horizon= (virtual time), bounding
// the event queue so Run terminates.
//
// linkdown without "silent" models carrier loss: both routers see PortDown
// and reconverge via triggered withdraws. With "silent" the link just eats
// packets — no signal, no withdraws — and recovery must come from
// soft-state expiry (hold=), the slow path.
package topo

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"dip/internal/bootstrap"
	"dip/internal/netsim"
)

// speakOptions is the parsed "speakers" directive.
type speakOptions struct {
	refresh   time.Duration
	hold      time.Duration
	horizon   time.Duration
	maxMetric int
}

// routerLink is one router↔router adjacency: who is on each side, the port
// each side uses, and the two directed pipes (ab carries a→b traffic).
type routerLink struct {
	aName, bName string
	aPort, bPort int
	ab, ba       *netsim.Endpoint
}

func (t *Topology) addSpeakers(args []string) error {
	if t.speak != nil {
		return fmt.Errorf("speakers redeclared")
	}
	opt := &speakOptions{refresh: 50 * time.Millisecond, maxMetric: 16}
	for _, a := range args {
		k, v, ok := strings.Cut(a, "=")
		if !ok {
			return fmt.Errorf("unknown speakers option %q", a)
		}
		switch k {
		case "refresh", "hold", "horizon":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return fmt.Errorf("%s wants a positive duration, got %q", k, v)
			}
			switch k {
			case "refresh":
				opt.refresh = d
			case "hold":
				opt.hold = d
			case "horizon":
				opt.horizon = d
			}
		case "maxmetric":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return fmt.Errorf("maxmetric wants a positive count, got %q", v)
			}
			opt.maxMetric = n
		default:
			return fmt.Errorf("unknown speakers option %q", a)
		}
	}
	if opt.hold == 0 {
		opt.hold = 3 * opt.refresh
	}
	if opt.horizon == 0 {
		opt.horizon = 20 * opt.refresh
	}
	t.speak = opt
	return nil
}

// findRouterLink resolves the link between two named routers (either
// order). Requires the link directive to appear earlier in the file.
func (t *Topology) findRouterLink(a, b string) (*routerLink, error) {
	for _, l := range t.rlinks {
		if (l.aName == a && l.bName == b) || (l.aName == b && l.bName == a) {
			return l, nil
		}
	}
	return nil, fmt.Errorf("no link between routers %s and %s (declare link first)", a, b)
}

// addLinkEvent schedules a linkdown or linkup.
func (t *Topology) addLinkEvent(up bool, args []string) error {
	args, at, err := t.scheduleAt(args)
	if err != nil {
		return err
	}
	silent := false
	if n := len(args); n > 0 && args[n-1] == "silent" {
		if up {
			return fmt.Errorf("linkup has no silent mode")
		}
		silent = true
		args = args[:n-1]
	}
	if len(args) != 2 {
		return fmt.Errorf("link event needs: routerA routerB [at D] [silent]")
	}
	l, err := t.findRouterLink(args[0], args[1])
	if err != nil {
		return err
	}
	t.events = append(t.events, event{at: at, fn: func() {
		l.ab.Dropped = !up
		l.ba.Dropped = !up
		verb := "down"
		if up {
			verb = "up"
		}
		if t.Log != nil {
			t.Log("[%v] link %s–%s %s (silent=%v)", t.sim.Now(), l.aName, l.bName, verb, silent)
		}
		if silent || t.speak == nil {
			return
		}
		sa, sb := t.Speaker(l.aName), t.Speaker(l.bName)
		if up {
			sa.PortUp(l.aPort)
			sb.PortUp(l.bPort)
		} else {
			sa.PortDown(l.aPort)
			sb.PortDown(l.bPort)
		}
	}})
	return nil
}

// Speaker returns the named router's route-exchange agent (nil without the
// speakers directive or before the scenario started).
func (t *Topology) Speaker(router string) *bootstrap.Speaker {
	if rn := t.routers[router]; rn != nil && rn.node != nil {
		return rn.node.Speaker
	}
	return nil
}
