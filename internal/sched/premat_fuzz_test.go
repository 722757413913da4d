package sched

import (
	"container/heap"
	"sort"
	"strconv"
	"testing"
)

// prematRef is the slow reference for the premat heap: a plain slice
// scanned for the minimum under the current key.
type prematRef struct {
	items []*Task
	sjf   bool
}

// key spells both policies out as tuples, independently of edfLess and
// sjfLess.
func (r *prematRef) key(t *Task) [3]int64 {
	if r.sjf {
		return [3]int64{int64(t.Remaining), int64(t.seq), 0}
	}
	return [3]int64{t.Deadline, int64(t.seq), 0}
}

func tupleLess(a, b [3]int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// head returns the index of the minimum under the current key, or -1.
func (r *prematRef) head() int {
	at := -1
	for i, t := range r.items {
		if at < 0 || tupleLess(r.key(t), r.key(r.items[at])) {
			at = i
		}
	}
	return at
}

func (r *prematRef) take(i int) *Task {
	if i < 0 {
		return nil
	}
	t := r.items[i]
	r.items = append(r.items[:i], r.items[i+1:]...)
	return t
}

func (r *prematRef) remove(key string) *Task {
	for i, t := range r.items {
		if t.Key == key {
			return r.take(i)
		}
	}
	return nil
}

func (r *prematRef) shed(n int) []*Task {
	if len(r.items) <= n {
		return nil
	}
	sorted := append([]*Task(nil), r.items...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		return a.Deadline < b.Deadline || a.Deadline == b.Deadline && a.seq < b.seq
	})
	r.items = sorted[:n]
	return sorted[n:]
}

// Premat-queue operations, one per two input bytes (opcode, argument).
const (
	opPush = iota
	opPop
	opRemove // argument 255 removes the current head (a promotion of it)
	opShed   // keep argument%4 tasks
	opFlip
	numOps
)

// FuzzPrematOrder drives the premat heap and the slow reference through
// the same operation sequence and compares every pop, removal (the
// queue half of a promotion) and shed set, then the final drain.
func FuzzPrematOrder(f *testing.F) {
	// A mode flip between pops.
	f.Add([]byte{opPush, 0x3a, opPush, 0x11, opPush, 0x2c, opPush, 0x05,
		opPop, 0, opFlip, 0, opPop, 0, opFlip, 0, opPop, 0, opPop, 0})
	// A promotion of the current head, under each key.
	f.Add([]byte{opPush, 0x19, opPush, 0x02, opPush, 0x44, opRemove, 255, opPop, 0,
		opFlip, 0, opPush, 0x30, opRemove, 255, opPop, 0})
	// A shed between pops, with ties on every key component.
	f.Add([]byte{opPush, 0x00, opPush, 0x00, opPush, 0x08, opPush, 0x40, opPush, 0x01,
		opFlip, 0, opShed, 2, opPop, 0, opRemove, 1, opPop, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var h taskHeap
		var ref prematRef
		var all []*Task
		same := func(what string, got, want *Task) {
			t.Helper()
			if got != want {
				t.Fatalf("%s: heap gave %v, reference %v", what, got, want)
			}
		}
		for ; len(data) >= 2; data = data[2:] {
			op, arg := data[0]%numOps, data[1]
			switch op {
			case opPush:
				tk := &Task{
					Key:       strconv.Itoa(len(all)),
					Deadline:  int64(arg % 8),
					Remaining: int(arg / 8 % 8),
					seq:       uint64(len(all)),
				}
				all = append(all, tk)
				heap.Push(&h, tk)
				ref.items = append(ref.items, tk)
			case opPop:
				same("pop", h.pop(), ref.take(ref.head()))
			case opRemove:
				key := "none"
				if i := ref.head(); arg == 255 && i >= 0 {
					key = ref.items[i].Key
				} else if arg != 255 && len(all) > 0 {
					key = all[int(arg)%len(all)].Key
				}
				same("remove "+key, h.remove(key), ref.remove(key))
			case opShed:
				got, want := h.shed(int(arg%4)), ref.shed(int(arg%4))
				if len(got) != len(want) {
					t.Fatalf("shed %d: heap shed %d tasks, reference %d", arg%4, len(got), len(want))
				}
				for i := range got {
					same("shed", got[i], want[i])
				}
			case opFlip:
				ref.sjf = !ref.sjf
				h.setSJF(ref.sjf)
			}
			if h.Len() != len(ref.items) {
				t.Fatalf("heap holds %d tasks, reference %d", h.Len(), len(ref.items))
			}
		}
		for len(ref.items) > 0 {
			same("drain", h.pop(), ref.take(ref.head()))
		}
		same("empty", h.pop(), nil)
	})
}
