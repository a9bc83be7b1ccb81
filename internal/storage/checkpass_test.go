package storage

import (
	"errors"
	"testing"
	"time"
)

// readOutcome is what one read leaves behind: the error's identity and
// the cost it charged.
type readOutcome struct {
	page        PageID // CorruptError.Page relative to the extent start; -1 for success
	quarantined bool
	tripped     bool
	reads       int64
	seeks       int64
	retries     int64
	simTime     time.Duration
}

// TestExtentCheckSemantics pins the outcome of every fault class on the
// extent read paths: which error surfaces (and for which page), and
// exactly what it charges. The expected values were recorded from the
// per-page check sequence the single check pass replaced, so any drift
// in error order or accounting fails here.
func TestExtentCheckSemantics(t *testing.T) {
	const n = 6
	ms := time.Millisecond
	// tripRegion opens the breaker region holding page p: a threshold-1
	// breaker observes one permanent fault there, then the mark is healed
	// so only the open region remains.
	tripRegion := func(t *testing.T, d *Disk, p PageID) {
		d.CorruptPage(p)
		if _, err := d.ReadPage(p, ClassLight); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("tripping read: err = %v", err)
		}
		d.HealPage(p)
		if d.BreakerStats().OpenRegions != 1 {
			t.Fatal("breaker region did not open")
		}
	}
	rows := []struct {
		name  string
		setup func(t *testing.T, d *Disk, start PageID)
		// extent is the outcome of one n-page ReadExtent or unpooled
		// ReadBytes; pages is that of n ReadPage calls in order,
		// stopping at the first error.
		extent, pages readOutcome
	}{
		{
			name:   "healthy",
			setup:  func(*testing.T, *Disk, PageID) {},
			extent: readOutcome{page: -1, reads: 6, seeks: 1, simTime: 9*ms + 600*time.Microsecond},
			pages:  readOutcome{page: -1, reads: 6, seeks: 1, simTime: 9*ms + 600*time.Microsecond},
		},
		{
			name:   "quarantined",
			setup:  func(_ *testing.T, d *Disk, start PageID) { d.Quarantine(start + 2) },
			extent: readOutcome{page: 2, quarantined: true},
			pages:  readOutcome{page: 2, quarantined: true, reads: 2, seeks: 1, simTime: 9*ms + 200*time.Microsecond},
		},
		{
			name:   "corrupt",
			setup:  func(_ *testing.T, d *Disk, start PageID) { d.CorruptPage(start + 2) },
			extent: readOutcome{page: 2, reads: 6, seeks: 1, simTime: 9*ms + 600*time.Microsecond},
			pages:  readOutcome{page: 2, reads: 3, seeks: 1, simTime: 9*ms + 300*time.Microsecond},
		},
		{
			name: "quarantine before corrupt",
			setup: func(_ *testing.T, d *Disk, start PageID) {
				d.CorruptPage(start + 1)
				d.Quarantine(start + 4)
			},
			extent: readOutcome{page: 4, quarantined: true},
			pages:  readOutcome{page: 1, reads: 2, seeks: 1, simTime: 9*ms + 200*time.Microsecond},
		},
		{
			name: "corrupt under closed breaker",
			setup: func(_ *testing.T, d *Disk, start PageID) {
				d.SetBreaker(BreakerConfig{RegionPages: 4, Threshold: 3, Cooldown: 8})
				d.CorruptPage(start + 2)
			},
			extent: readOutcome{page: 2, reads: 6, seeks: 1, simTime: 9*ms + 600*time.Microsecond},
			pages:  readOutcome{page: 2, reads: 3, seeks: 1, simTime: 9*ms + 300*time.Microsecond},
		},
		{
			name: "open breaker region",
			setup: func(t *testing.T, d *Disk, start PageID) {
				d.SetBreaker(BreakerConfig{RegionPages: 4, Threshold: 1, Cooldown: 100})
				tripRegion(t, d, start+4)
			},
			extent: readOutcome{page: 4, tripped: true},
			pages:  readOutcome{page: 4, tripped: true, reads: 4, seeks: 1, simTime: 9*ms + 400*time.Microsecond},
		},
		{
			name: "open breaker before corrupt",
			setup: func(t *testing.T, d *Disk, start PageID) {
				d.SetBreaker(BreakerConfig{RegionPages: 4, Threshold: 1, Cooldown: 100})
				tripRegion(t, d, start+4)
				d.CorruptPage(start + 1)
			},
			extent: readOutcome{page: 4, tripped: true},
			pages:  readOutcome{page: 1, reads: 2, seeks: 1, simTime: 9*ms + 200*time.Microsecond},
		},
		{
			name: "injected transient",
			setup: func(_ *testing.T, d *Disk, start PageID) {
				d.InjectPageFault(start+1, FaultTransient, 2)
			},
			extent: readOutcome{page: -1, reads: 6, seeks: 1, retries: 2, simTime: 27*ms + 800*time.Microsecond},
			pages:  readOutcome{page: -1, reads: 6, seeks: 1, retries: 2, simTime: 27*ms + 800*time.Microsecond},
		},
		{
			name: "injected transient and permanent",
			setup: func(_ *testing.T, d *Disk, start PageID) {
				d.InjectPageFault(start+1, FaultTransient, 2)
				d.InjectPageFault(start+3, FaultPermanent, 0)
			},
			extent: readOutcome{page: 3, reads: 6, seeks: 1, retries: 5, simTime: 54*ms + 1100*time.Microsecond},
			pages:  readOutcome{page: 3, reads: 4, seeks: 1, retries: 5, simTime: 54*ms + 900*time.Microsecond},
		},
		{
			name: "injected faults under breaker",
			setup: func(_ *testing.T, d *Disk, start PageID) {
				d.SetBreaker(BreakerConfig{RegionPages: 4, Threshold: 3, Cooldown: 8})
				d.InjectPageFault(start+1, FaultTransient, 2)
				d.InjectPageFault(start+3, FaultPermanent, 0)
			},
			extent: readOutcome{page: 3, reads: 6, seeks: 1, retries: 5, simTime: 54*ms + 1100*time.Microsecond},
			pages:  readOutcome{page: 3, reads: 4, seeks: 1, retries: 5, simTime: 54*ms + 900*time.Microsecond},
		},
	}
	ops := []struct {
		name   string
		extent bool
		read   func(c *Client, start PageID) error
	}{
		{"ReadExtent", true, func(c *Client, start PageID) error {
			return c.ReadExtent(start, n, ClassLight)
		}},
		{"ReadBytes", true, func(c *Client, start PageID) error {
			_, err := c.ReadBytes(start, n*c.PageSize()-100, ClassLight)
			return err
		}},
		{"ReadPage", false, func(c *Client, start PageID) error {
			for i := 0; i < n; i++ {
				if _, err := c.ReadPage(start+PageID(i), ClassLight); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, row := range rows {
		for _, op := range ops {
			t.Run(row.name+"/"+op.name, func(t *testing.T) {
				d, start := faultDisk(t, 8)
				if start%4 != 0 {
					t.Fatalf("extent start %d not region-aligned", start)
				}
				row.setup(t, d, start)
				c := d.NewClient()
				before := d.Stats()
				err := op.read(c, start)
				delta := d.Stats().Sub(before)
				got := readOutcome{page: -1, reads: delta.Reads, seeks: delta.Seeks, retries: delta.Retries, simTime: delta.SimTime}
				var ce *CorruptError
				if errors.As(err, &ce) {
					got.page, got.quarantined, got.tripped = ce.Page-start, ce.Quarantined, ce.Tripped
				} else if err != nil {
					t.Fatalf("err = %v, want nil or CorruptError", err)
				}
				want := row.pages
				if op.extent {
					want = row.extent
				}
				if got != want {
					t.Errorf("outcome = %+v, want %+v", got, want)
				}
				if delta.LightReads != delta.Reads {
					t.Errorf("LightReads = %d, Reads = %d", delta.LightReads, delta.Reads)
				}
				if cs := c.Stats(); cs != delta {
					t.Errorf("client charged %+v, disk %+v", cs, delta)
				}
			})
		}
	}
}
