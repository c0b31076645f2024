package ucr

import (
	"sync"
	"testing"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/rdma"
	"mpi4spark/internal/vtime"
)

func TestProbeServerThroughput(t *testing.T) {
	f := fabric.New(fabric.NewIBHDRModel())
	sdev := rdma.OpenDevice(f.AddNode("server"))
	block := make([]byte, 256<<10)
	srv := NewServer(sdev, func(string) ([]byte, bool) { return block, true }, DefaultConfig())
	defer srv.Close()

	var wg sync.WaitGroup
	var mu sync.Mutex
	var maxVT vtime.Stamp
	// 7 client nodes, 4 fetches each = 28 fetches all posted at vt 0.
	for c := 0; c < 7; c++ {
		cdev := rdma.OpenDevice(f.AddNode(string(rune('a' + c))))
		cl, _, err := srv.Connect(cdev, 0)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(cl *Client) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				_, vt, err := fetchOne(cl, "b", 0)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if vt > maxVT {
					maxVT = vt
				}
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	t.Logf("28 fetches of 256KB: last delivery %v (%v per fetch)", maxVT, (maxVT / 28).AsDuration())
}
