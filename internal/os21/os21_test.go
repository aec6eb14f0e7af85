package os21

import (
	"testing"

	"embera/internal/sim"
	"embera/internal/sti7200"
)

func boot(t *testing.T) (*sim.Kernel, *sti7200.Chip) {
	t.Helper()
	k := sim.NewKernel()
	return k, sti7200.MustNew(k, sti7200.DefaultConfig())
}

func TestBootSelectsHeap(t *testing.T) {
	_, chip := boot(t)
	host := Boot(chip, 0)
	acc := Boot(chip, 1)
	if host.HeapUsed() != 0 || acc.HeapUsed() != 0 {
		t.Error("fresh heaps not empty")
	}
	// ST40 heap is SDRAM; allocating there moves SDRAM usage.
	if _, err := host.CreateTask("t", TaskAttr{}, func(t *Task) {}); err != nil {
		t.Fatal(err)
	}
	if chip.SDRAM.Used() != DefaultTaskBytes {
		t.Errorf("SDRAM used = %d, want %d", chip.SDRAM.Used(), DefaultTaskBytes)
	}
	// ST231 heap is its local block.
	if _, err := acc.CreateTask("t", TaskAttr{}, func(t *Task) {}); err != nil {
		t.Fatal(err)
	}
	if chip.CPU(1).Local.Used() != DefaultTaskBytes {
		t.Errorf("local used = %d, want %d", chip.CPU(1).Local.Used(), DefaultTaskBytes)
	}
}

func TestDefaultTaskBytesMatchesPaper(t *testing.T) {
	if DefaultTaskBytes != 60*1024 {
		t.Errorf("DefaultTaskBytes = %d, want the paper's 60 kB", DefaultTaskBytes)
	}
}

func TestCreateTaskRejectsTinyMemory(t *testing.T) {
	_, chip := boot(t)
	o := Boot(chip, 1)
	if _, err := o.CreateTask("t", TaskAttr{MemBytes: 100}, func(t *Task) {}); err == nil {
		t.Error("tiny task memory accepted")
	}
}

func TestCreateTaskLocalMemoryExhaustion(t *testing.T) {
	_, chip := boot(t)
	o := Boot(chip, 1) // 1 MB local memory
	for i := 0; ; i++ {
		_, err := o.CreateTask("t", TaskAttr{MemBytes: 200 * 1024}, func(t *Task) {})
		if err != nil {
			if i != 5 { // 5 × 200 kB fit in 1 MB
				t.Errorf("exhausted after %d tasks, want 5", i)
			}
			return
		}
		if i > 10 {
			t.Fatal("local memory never exhausted")
		}
	}
}

func TestTaskTimeAccumulatesCompute(t *testing.T) {
	k, chip := boot(t)
	o := Boot(chip, 1) // ST231 at 400 MHz
	task, err := o.CreateTask("w", TaskAttr{}, func(t *Task) {
		t.Compute(400_000)               // 1 ms
		t.P.Advance(5 * sim.Millisecond) // blocked time: not task_time
		t.Compute(800_000)               // 2 ms
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if task.TaskTime() != 3*sim.Millisecond {
		t.Errorf("task_time = %v, want 3ms", task.TaskTime())
	}
	if task.Elapsed() != 8*sim.Millisecond {
		t.Errorf("elapsed = %v, want 8ms", task.Elapsed())
	}
}

func TestElapsedBeforeDoneIsZero(t *testing.T) {
	k, chip := boot(t)
	o := Boot(chip, 1)
	task, _ := o.CreateTask("w", TaskAttr{}, func(t *Task) {
		t.ComputeFor(sim.Millisecond)
	})
	if task.Elapsed() != 0 || task.Done() {
		t.Error("task reported finished before running")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !task.Done() {
		t.Error("task not done after Run")
	}
}

func TestTimeNowUsesLocalClock(t *testing.T) {
	k, chip := boot(t)
	o1 := Boot(chip, 1)
	o2 := Boot(chip, 2)
	// At t=0, skew staggers the two ST231 clocks.
	skew := chip.Config().ClockSkewTicks
	if o2.TimeNow()-o1.TimeNow() != skew {
		t.Errorf("clock skew = %d, want %d", o2.TimeNow()-o1.TimeNow(), skew)
	}
	k.At(sim.Millisecond, func() {
		// 1 ms at 400 MHz = 400 000 ticks from each clock's own baseline.
		if got := o1.TimeNow() - skew*1; got != 400_000 {
			t.Errorf("CPU1 ticks after 1ms = %d, want 400000", got)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if o1.TicksToDuration(400_000) != sim.Millisecond {
		t.Error("TicksToDuration wrong")
	}
}

func TestChargeTransferSerializesOnBus(t *testing.T) {
	k, chip := boot(t)
	o1 := Boot(chip, 1)
	o2 := Boot(chip, 2)
	var done []sim.Time
	mk := func(o *RTOS) {
		if _, err := o.CreateTask("w", TaskAttr{}, func(t *Task) {
			t.ChargeTransfer(10 * 1024)
			done = append(done, t.P.Now())
		}); err != nil {
			t.Fatal(err)
		}
	}
	mk(o1)
	mk(o2)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	per := chip.TransferCost(chip.CPU(1), 10*1024)
	if len(done) != 2 {
		t.Fatalf("done = %v", done)
	}
	// Second completion must wait for the first (single bus slot).
	if sim.Duration(done[1]-done[0]) != per {
		t.Errorf("bus did not serialize: completions %v, per-transfer %v", done, per)
	}
}

func TestTaskAllocGrowsFootprint(t *testing.T) {
	k, chip := boot(t)
	o := Boot(chip, 1)
	task, err := o.CreateTask("w", TaskAttr{}, func(t *Task) {
		if err := t.TaskAlloc(25 * 1024); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if task.MemUsed() != DefaultTaskBytes+25*1024 {
		t.Errorf("MemUsed = %d", task.MemUsed())
	}
	if o.HeapUsed() != DefaultTaskBytes+25*1024 {
		t.Errorf("HeapUsed = %d", o.HeapUsed())
	}
}

func TestSemaphoreWrapper(t *testing.T) {
	k, chip := boot(t)
	o := Boot(chip, 1)
	sem := o.NewSemaphore("s", 0)
	var order []string
	if _, err := o.CreateTask("waiter", TaskAttr{}, func(t *Task) {
		sem.Wait(t)
		order = append(order, "woke")
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := o.CreateTask("signaler", TaskAttr{}, func(t *Task) {
		t.ComputeFor(sim.Millisecond)
		order = append(order, "signal")
		sem.Signal()
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "signal" || order[1] != "woke" {
		t.Errorf("order = %v", order)
	}
	if sem.Count() != 0 {
		t.Errorf("count = %d", sem.Count())
	}
}

func TestMessageQueueWrapper(t *testing.T) {
	k, chip := boot(t)
	o := Boot(chip, 1)
	q := o.NewMessageQueue("q", 4)
	var got []byte
	if _, err := o.CreateTask("recv", TaskAttr{}, func(t *Task) {
		got = q.Receive(t)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := o.CreateTask("send", TaskAttr{}, func(t *Task) {
		q.Send(t, []byte("ping"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "ping" {
		t.Errorf("got %q", got)
	}
	if q.Len() != 0 {
		t.Errorf("len = %d", q.Len())
	}
}

func TestTaskListPerInstance(t *testing.T) {
	k, chip := boot(t)
	o := Boot(chip, 1)
	for i := 0; i < 3; i++ {
		if _, err := o.CreateTask("t", TaskAttr{}, func(t *Task) {}); err != nil {
			t.Fatal(err)
		}
	}
	if len(o.Tasks()) != 3 {
		t.Errorf("tasks = %d", len(o.Tasks()))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTasksShareCPUSerialized(t *testing.T) {
	k, chip := boot(t)
	o := Boot(chip, 1)
	var done []sim.Time
	for i := 0; i < 2; i++ {
		if _, err := o.CreateTask("w", TaskAttr{}, func(task *Task) {
			task.ComputeFor(5 * sim.Millisecond)
			done = append(done, task.P.Now())
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	base := sim.Time(TaskSpawnCost)
	if done[0] != base+sim.Time(5*sim.Millisecond) ||
		done[1] != base+sim.Time(10*sim.Millisecond) {
		t.Errorf("completions = %v, want serialized on one CPU", done)
	}
}

func TestKilledTaskRecordsExit(t *testing.T) {
	k, chip := boot(t)
	o := Boot(chip, 1)
	task, err := o.CreateTask("spin", TaskAttr{}, func(t *Task) {
		for {
			t.ComputeFor(sim.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.At(10*sim.Millisecond, func() { k.Kill(task.P) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !task.Done() {
		t.Error("killed task not marked done")
	}
	if got, want := task.FinishedAt(), sim.Time(10*sim.Millisecond); got != want {
		t.Errorf("killed task finished at %v, want the kill instant %v", got, want)
	}
}
