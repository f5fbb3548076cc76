package wackamole_test

// Unit tests of the Node composition layer: construction errors, the
// reconnect loop, and configuration defaults.

import (
	"testing"
	"time"

	"wackamole"
	"wackamole/internal/core"
	"wackamole/internal/gcs"
)

func TestNewClusterRejectsBadConfigs(t *testing.T) {
	// Invalid gcs config propagates out of NewNode.
	bad := gcs.TunedConfig()
	bad.HeartbeatInterval = bad.FaultDetectTimeout * 2
	if _, err := wackamole.NewCluster(wackamole.ClusterOptions{
		Seed: 1, Servers: 1, VIPs: 1, GCS: bad,
	}); err == nil {
		t.Fatal("invalid gcs config accepted")
	}
	// Invalid engine config via ConfigureNode.
	if _, err := wackamole.NewCluster(wackamole.ClusterOptions{
		Seed: 1, Servers: 1, VIPs: 1,
		ConfigureNode: func(_ int, cfg *wackamole.Config) {
			cfg.Engine.Groups = nil
		},
	}); err == nil {
		t.Fatal("invalid engine config accepted")
	}
}

func TestReconnectAfterRepeatedSevers(t *testing.T) {
	c := newCluster(t, wackamole.ClusterOptions{
		Seed: 31, Servers: 2, VIPs: 4,
		BalanceTimeout: 4 * time.Second,
		ConfigureNode: func(_ int, cfg *wackamole.Config) {
			cfg.ReconnectInterval = 500 * time.Millisecond
		},
	})
	c.Settle()
	victim := c.Servers[0].Node
	for round := 0; round < 3; round++ {
		if victim.Session() == nil {
			t.Fatalf("round %d: no session to sever", round)
		}
		victim.Session().Sever()
		if victim.Session() != nil {
			t.Fatal("session reference survives sever")
		}
		c.RunFor(15 * time.Second)
		if victim.Status().State != core.StateRun {
			t.Fatalf("round %d: node never recovered (state %v)", round, victim.Status().State)
		}
	}
	checkExactlyOnce(t, c)
}

func TestLeaveServiceTwiceErrors(t *testing.T) {
	c := newCluster(t, wackamole.ClusterOptions{Seed: 32, Servers: 2, VIPs: 2})
	c.Settle()
	n := c.Servers[0].Node
	if err := n.LeaveService(); err != nil {
		t.Fatal(err)
	}
	if err := n.LeaveService(); err == nil {
		t.Fatal("second LeaveService succeeded")
	}
}

func TestStopIsIdempotentAndStopsReconnects(t *testing.T) {
	c := newCluster(t, wackamole.ClusterOptions{Seed: 33, Servers: 2, VIPs: 2})
	c.Settle()
	n := c.Servers[1].Node
	n.Stop()
	n.Stop() // second stop must be harmless
	c.RunFor(20 * time.Second)
	if n.Status().State != core.StateDetached {
		t.Fatalf("stopped node state = %v", n.Status().State)
	}
	// The survivor covers everything.
	cov := c.CoverageByServer()
	if cov[0] != 2 {
		t.Fatalf("survivor coverage = %v", cov)
	}
}

func TestNodeStopGracefulVsCrashTiming(t *testing.T) {
	// A graceful Stop must reconfigure the survivors much faster than a
	// crash (discovery only vs detection + discovery).
	measure := func(graceful bool) time.Duration {
		c := newCluster(t, wackamole.ClusterOptions{Seed: 34, Servers: 3, VIPs: 6})
		c.Settle()
		var installedAt time.Duration
		c.Servers[0].Node.Daemon().AddMembershipHandler(func(_ gcs.RingID, members []gcs.DaemonID) {
			if len(members) == 2 && installedAt == 0 {
				installedAt = c.Sim.Elapsed()
			}
		})
		start := c.Sim.Elapsed()
		if graceful {
			c.Servers[2].Node.Stop()
		} else {
			c.CrashServer(2)
		}
		c.RunFor(15 * time.Second)
		if installedAt == 0 {
			t.Fatal("survivors never reconfigured")
		}
		return installedAt - start
	}
	graceful, crash := measure(true), measure(false)
	if graceful >= crash {
		t.Fatalf("graceful stop (%v) not faster than crash (%v)", graceful, crash)
	}
	if graceful > 2*time.Second {
		t.Fatalf("graceful stop took %v, want ≈ discovery round", graceful)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := newCluster(t, wackamole.ClusterOptions{Seed: 35, Servers: 1, VIPs: 1})
	c.Settle()
	st := c.Servers[0].Node.Status()
	if st.State != core.StateRun {
		t.Fatalf("state = %v", st.State)
	}
	// The default group name is used when none is configured.
	if got := c.Servers[0].Node.Member(); got == "" {
		t.Fatal("empty member")
	}
}
