package embx

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"embera/internal/os21"
	"embera/internal/sim"
	"embera/internal/sti7200"
)

type fixture struct {
	k    *sim.Kernel
	chip *sti7200.Chip
	tr   *Transport
	host *os21.RTOS // ST40
	acc  *os21.RTOS // ST231 #1
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	k := sim.NewKernel()
	chip := sti7200.MustNew(k, sti7200.DefaultConfig())
	return &fixture{
		k:    k,
		chip: chip,
		tr:   NewTransport(chip),
		host: os21.Boot(chip, 0),
		acc:  os21.Boot(chip, 1),
	}
}

func TestCreateObjectDefaults(t *testing.T) {
	f := newFixture(t)
	o, err := f.tr.CreateObject("obj", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if o.Size() != DefaultObjectBytes {
		t.Errorf("size = %d, want %d", o.Size(), DefaultObjectBytes)
	}
	if DefaultObjectBytes != 25*1024 {
		t.Errorf("DefaultObjectBytes = %d, want the paper's 25 kB", DefaultObjectBytes)
	}
	if f.chip.SDRAM.Used() != DefaultObjectBytes {
		t.Errorf("SDRAM used = %d", f.chip.SDRAM.Used())
	}
	if o.Owner() != 1 || o.Name() != "obj" {
		t.Error("metadata wrong")
	}
}

func TestCreateObjectValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := f.tr.CreateObject("o", 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.tr.CreateObject("o", 1, 0); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := f.tr.CreateObject("bad-cpu", 99, 0); err == nil {
		t.Error("bad owner accepted")
	}
	if _, err := f.tr.CreateObject("neg", 1, -5); err == nil {
		t.Error("negative size accepted")
	}
	if f.tr.Objects() != 1 {
		t.Errorf("objects = %d", f.tr.Objects())
	}
}

func TestSendReceiveRoundTrip(t *testing.T) {
	f := newFixture(t)
	obj, err := f.tr.CreateObject("pipe", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 4096)
	var got []byte
	var fromCPU int
	if _, err := f.acc.CreateTask("recv", os21.TaskAttr{}, func(task *os21.Task) {
		data, from, _, err := obj.Receive(task)
		if err != nil {
			panic(err)
		}
		got, fromCPU = data, from
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.host.CreateTask("send", os21.TaskAttr{}, func(task *os21.Task) {
		if _, err := obj.Send(task, payload); err != nil {
			panic(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("payload corrupted in transit")
	}
	if fromCPU != 0 {
		t.Errorf("fromCPU = %d, want 0 (ST40)", fromCPU)
	}
	sends, receives := obj.Stats()
	if sends != 1 || receives != 1 {
		t.Errorf("stats = %d,%d", sends, receives)
	}
}

func TestSendIsAsyncWriteCost(t *testing.T) {
	// EMBX_Send returns after the write, regardless of whether anyone has
	// received — and the reported cost equals the chip transfer cost.
	f := newFixture(t)
	obj, _ := f.tr.CreateObject("pipe", 1, 0)
	var sendCost sim.Duration
	if _, err := f.host.CreateTask("send", os21.TaskAttr{}, func(task *os21.Task) {
		d, err := obj.Send(task, make([]byte, 10*1024))
		if err != nil {
			panic(err)
		}
		sendCost = d
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.k.Run(); err != nil {
		t.Fatal(err)
	}
	want := f.chip.TransferCost(f.chip.CPU(0), 10*1024)
	if sendCost != want {
		t.Errorf("send cost = %v, want %v", sendCost, want)
	}
	if obj.Pending() != 10*1024 {
		t.Errorf("pending = %d", obj.Pending())
	}
}

func TestReceiveBlocksUntilSend(t *testing.T) {
	f := newFixture(t)
	obj, _ := f.tr.CreateObject("pipe", 1, 0)
	var recvDone sim.Time
	if _, err := f.acc.CreateTask("recv", os21.TaskAttr{}, func(task *os21.Task) {
		if _, _, _, err := obj.Receive(task); err != nil {
			panic(err)
		}
		recvDone = task.P.Now()
	}); err != nil {
		t.Fatal(err)
	}
	// Sender starts 5 ms in.
	f.k.SpawnAt(5*sim.Millisecond, "late-sender-env", func(p *sim.Proc) {})
	if _, err := f.host.CreateTask("send", os21.TaskAttr{}, func(task *os21.Task) {
		task.ComputeFor(5 * sim.Millisecond)
		if _, err := obj.Send(task, []byte("x")); err != nil {
			panic(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.k.Run(); err != nil {
		t.Fatal(err)
	}
	if recvDone < sim.Time(5*sim.Millisecond) {
		t.Errorf("receive completed at %d, before the send", recvDone)
	}
}

func TestReceiveWrongCPURejected(t *testing.T) {
	f := newFixture(t)
	obj, _ := f.tr.CreateObject("pipe", 1, 0)
	if _, err := f.host.CreateTask("recv", os21.TaskAttr{}, func(task *os21.Task) {
		if _, _, _, err := obj.Receive(task); err == nil {
			t.Error("receive from non-owner CPU accepted")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOversizeMessageRejected(t *testing.T) {
	f := newFixture(t)
	obj, _ := f.tr.CreateObject("pipe", 1, 1024)
	if _, err := f.host.CreateTask("send", os21.TaskAttr{}, func(task *os21.Task) {
		if _, err := obj.Send(task, make([]byte, 2048)); err == nil {
			t.Error("oversize message accepted")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSenderBlocksOnFullObject(t *testing.T) {
	f := newFixture(t)
	obj, _ := f.tr.CreateObject("pipe", 1, 1024)
	var secondSendAt sim.Time
	if _, err := f.host.CreateTask("send", os21.TaskAttr{}, func(task *os21.Task) {
		if _, err := obj.Send(task, make([]byte, 1024)); err != nil {
			panic(err)
		}
		if _, err := obj.Send(task, make([]byte, 1024)); err != nil {
			panic(err)
		}
		secondSendAt = task.P.Now()
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.acc.CreateTask("recv", os21.TaskAttr{}, func(task *os21.Task) {
		task.ComputeFor(20 * sim.Millisecond) // let the object fill
		if _, _, _, err := obj.Receive(task); err != nil {
			panic(err)
		}
		if _, _, _, err := obj.Receive(task); err != nil {
			panic(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.k.Run(); err != nil {
		t.Fatal(err)
	}
	if secondSendAt < sim.Time(20*sim.Millisecond) {
		t.Errorf("second send finished at %d without waiting for room", secondSendAt)
	}
}

func TestST231SendsFasterThanST40(t *testing.T) {
	// The core of Figure 8: same message size, the accelerator's send is
	// cheaper than the host CPU's.
	f := newFixture(t)
	toAcc, _ := f.tr.CreateObject("to-acc", 2, 256*1024)
	size := 25 * 1024
	var st40Cost, st231Cost sim.Duration
	drain := func(task *os21.Task, n int) {
		for i := 0; i < n; i++ {
			if _, _, _, err := toAcc.Receive(task); err != nil {
				panic(err)
			}
		}
	}
	acc2 := os21.Boot(f.chip, 2)
	if _, err := acc2.CreateTask("recv", os21.TaskAttr{}, func(task *os21.Task) {
		drain(task, 2)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.host.CreateTask("send40", os21.TaskAttr{}, func(task *os21.Task) {
		d, err := obj2send(toAcc, task, size)
		if err != nil {
			panic(err)
		}
		st40Cost = d
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.acc.CreateTask("send231", os21.TaskAttr{}, func(task *os21.Task) {
		task.ComputeFor(100 * sim.Millisecond) // avoid bus overlap for a clean read
		d, err := obj2send(toAcc, task, size)
		if err != nil {
			panic(err)
		}
		st231Cost = d
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.k.Run(); err != nil {
		t.Fatal(err)
	}
	if st231Cost >= st40Cost {
		t.Errorf("ST231 send %v >= ST40 send %v", st231Cost, st40Cost)
	}
}

func obj2send(o *Object, task *os21.Task, n int) (sim.Duration, error) {
	return o.Send(task, make([]byte, n))
}

func TestDeleteObject(t *testing.T) {
	f := newFixture(t)
	obj, _ := f.tr.CreateObject("pipe", 1, 2048)
	if err := f.tr.Delete("pipe"); err != nil {
		t.Fatal(err)
	}
	if f.chip.SDRAM.Used() != 0 {
		t.Errorf("SDRAM not freed: %d", f.chip.SDRAM.Used())
	}
	if err := f.tr.Delete("pipe"); err == nil {
		t.Error("double delete accepted")
	}
	if _, err := f.host.CreateTask("send", os21.TaskAttr{}, func(task *os21.Task) {
		if _, err := obj.Send(task, []byte("x")); err == nil {
			t.Error("send on deleted object accepted")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteWakesBlockedReceiver(t *testing.T) {
	f := newFixture(t)
	obj, _ := f.tr.CreateObject("pipe", 1, 2048)
	if _, err := f.acc.CreateTask("recv", os21.TaskAttr{}, func(task *os21.Task) {
		if _, _, _, err := obj.Receive(task); err == nil {
			t.Error("receive on deleted object succeeded")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.host.CreateTask("deleter", os21.TaskAttr{}, func(task *os21.Task) {
		task.ComputeFor(sim.Millisecond)
		if err := f.tr.Delete("pipe"); err != nil {
			panic(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestObjectLookup(t *testing.T) {
	f := newFixture(t)
	created, _ := f.tr.CreateObject("pipe", 1, 0)
	got, ok := f.tr.Object("pipe")
	if !ok || got != created {
		t.Error("lookup failed")
	}
	if _, ok := f.tr.Object("ghost"); ok {
		t.Error("ghost object found")
	}
}

func TestFIFOOrderAcrossSenders(t *testing.T) {
	f := newFixture(t)
	obj, _ := f.tr.CreateObject("pipe", 1, 1<<20)
	var got []byte
	if _, err := f.acc.CreateTask("recv", os21.TaskAttr{}, func(task *os21.Task) {
		for i := 0; i < 10; i++ {
			data, _, _, err := obj.Receive(task)
			if err != nil {
				panic(err)
			}
			got = append(got, data[0])
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.host.CreateTask("send", os21.TaskAttr{}, func(task *os21.Task) {
		for i := byte(0); i < 10; i++ {
			if _, err := obj.Send(task, []byte{i}); err != nil {
				panic(err)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 10; i++ {
		if got[i] != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

// herd runs eight sender tasks that each write msgs messages into one
// object with room for a single one, read by one task. It returns the
// senders in the order the reader got their messages, the kernel's
// counters and the mallocs the run made.
func herd(t *testing.T, msgs int) (order []int, st sim.KernelStats, mallocs uint64) {
	t.Helper()
	f := newFixture(t)
	const senders, size = 8, 1024
	obj, err := f.tr.CreateObject("herd", 1, size)
	if err != nil {
		t.Fatal(err)
	}
	order = make([]int, 0, senders*msgs)
	if _, err := f.acc.CreateTask("recv", os21.TaskAttr{}, func(task *os21.Task) {
		for range senders * msgs {
			_, meta, _, _, err := obj.ReceiveMeta(task.P, task)
			if err != nil {
				panic(err)
			}
			order = append(order, meta.(int))
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < senders; i++ {
		var from any = i
		if _, err := f.host.CreateTask(fmt.Sprintf("send%d", i), os21.TaskAttr{}, func(task *os21.Task) {
			for range msgs {
				if _, err := obj.SendOpaque(task.P, task, size, from); err != nil {
					panic(err)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if err := f.k.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	return order, f.k.Stats(), m1.Mallocs - m0.Mallocs
}

// TestSenderHerd: eight senders blocked on one full object are all woken
// by every read, and all but one wait again. The kernel re-parks those
// without switching into them; the admission order and the event stream
// stay what they were when every one of them switched in, and a blocked
// send allocates nothing.
func TestSenderHerd(t *testing.T) {
	order, st, _ := herd(t, 3)
	h := fnv.New64a()
	for _, s := range order {
		fmt.Fprintf(h, "%d,", s)
	}
	// Pinned from the kernel that switched into every woken sender: the
	// order, the events it scheduled and its 133 switches, now 11 re-parks
	// and 122 switches.
	const (
		wantOrder    = 0x42bcb89f32af97b5
		wantSchedule = 214
		wantResumes  = 133
		wantReparks  = 11
	)
	if h.Sum64() != wantOrder {
		t.Errorf("admission order %v moved (fnv %#x)", order, h.Sum64())
	}
	if st.Scheduled != wantSchedule || st.Switches+st.Reparks != wantResumes || st.Reparks != wantReparks {
		t.Errorf("kernel counters %+v, want %d scheduled, %d resumes, %d re-parked",
			st, wantSchedule, wantResumes, wantReparks)
	}

	_, short, few := herd(t, 50)
	_, long, many := herd(t, 550)
	if long.Reparks <= short.Reparks {
		t.Fatalf("re-parks did not grow with the herd: %d then %d", short.Reparks, long.Reparks)
	}
	if perSend := float64(int64(many)-int64(few)) / (8 * 500); perSend > 0.01 {
		t.Fatalf("a blocked send allocates %.3f times, want 0", perSend)
	}
}
