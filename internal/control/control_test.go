package control

import (
	"testing"
	"time"
)

func TestFakeClockNowAdvance(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := NewFake(start)
	if got := clk.Now(); !got.Equal(start) {
		t.Fatalf("Now = %v, want %v", got, start)
	}
	clk.Advance(3 * time.Second)
	if got := clk.Now(); !got.Equal(start.Add(3 * time.Second)) {
		t.Fatalf("Now after Advance = %v", got)
	}
}

func TestFakeClockAfterFiresAtDeadline(t *testing.T) {
	clk := NewFake(time.Unix(0, 0))
	ch := clk.After(100 * time.Millisecond)
	select {
	case <-ch:
		t.Fatal("timer fired before Advance")
	default:
	}
	clk.Advance(99 * time.Millisecond)
	select {
	case <-ch:
		t.Fatal("timer fired 1ms early")
	default:
	}
	if clk.Waiters() != 1 {
		t.Fatalf("Waiters = %d, want 1", clk.Waiters())
	}
	clk.Advance(time.Millisecond)
	select {
	case at := <-ch:
		if !at.Equal(time.Unix(0, 0).Add(100 * time.Millisecond)) {
			t.Fatalf("fired with time %v", at)
		}
	default:
		t.Fatal("timer did not fire at its deadline")
	}
	if clk.Waiters() != 0 {
		t.Fatalf("Waiters after fire = %d, want 0", clk.Waiters())
	}
}

func TestFakeClockAfterNonPositiveFiresImmediately(t *testing.T) {
	clk := NewFake(time.Unix(0, 0))
	select {
	case <-clk.After(0):
	default:
		t.Fatal("After(0) did not fire immediately")
	}
	select {
	case <-clk.After(-time.Second):
	default:
		t.Fatal("After(<0) did not fire immediately")
	}
}

func TestFakeClockOneAdvanceFiresMultipleDue(t *testing.T) {
	clk := NewFake(time.Unix(0, 0))
	a := clk.After(10 * time.Millisecond)
	b := clk.After(20 * time.Millisecond)
	c := clk.After(time.Hour)
	clk.Advance(50 * time.Millisecond)
	for name, ch := range map[string]<-chan time.Time{"a": a, "b": b} {
		select {
		case <-ch:
		default:
			t.Fatalf("timer %s not fired by a covering Advance", name)
		}
	}
	select {
	case <-c:
		t.Fatal("one-hour timer fired after 50ms")
	default:
	}
}

func TestOrDefaultsToRealClock(t *testing.T) {
	if _, ok := Or(nil).(Real); !ok {
		t.Fatal("Or(nil) is not the wall clock")
	}
	clk := NewFake(time.Unix(0, 0))
	if Or(clk) != Clock(clk) {
		t.Fatal("Or(clk) did not pass the clock through")
	}
}
