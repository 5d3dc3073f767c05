// Command poeclient talks to a poeserver cluster over TCP: set or get keys,
// or generate load.
//
//	poeclient -peers 127.0.0.1:7000,... -set greeting=hello
//	poeclient -peers 127.0.0.1:7000,... -get greeting
//	poeclient -peers 127.0.0.1:7000,... -load 5s
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"github.com/poexec/poe/internal/deploy"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/workload"
)

func main() {
	peerList := flag.String("peers", "", "comma-separated replica addresses")
	set := flag.String("set", "", "write key=value")
	get := flag.String("get", "", "read key")
	load := flag.Duration("load", 0, "generate YCSB load for this duration")
	listen := flag.String("listen", "127.0.0.1:0", "client listen address")
	seed := flag.String("seed", "poe-demo-seed", "shared key-ring seed")
	cid := flag.Int("client", 0, "client index")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	pool, closePool, err := deploy.NewTCPClients(ctx, deploy.ClientPoolOptions{
		Addrs: strings.Split(*peerList, ","), Scheme: "mac", Seed: *seed,
		BaseIndex: *cid, Timeout: time.Second, Listen: *listen,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer closePool()
	cl := pool[0]
	submit := func(ops []types.Op) (types.Result, error) {
		return cl.Sub.SubmitTxn(ctx, types.Transaction{Client: cl.ID, Seq: cl.Sub.NextSeq(), Ops: ops, TimeNanos: time.Now().UnixNano()})
	}

	switch {
	case *set != "":
		kv := strings.SplitN(*set, "=", 2)
		if len(kv) != 2 {
			log.Fatal("-set wants key=value")
		}
		if _, err := submit([]types.Op{{Kind: types.OpWrite, Key: kv[0], Value: []byte(kv[1])}}); err != nil {
			log.Fatal(err)
		}
		fmt.Println("ok")
	case *get != "":
		res, err := submit([]types.Op{{Kind: types.OpRead, Key: *get}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%q\n", res.Values[0])
	case *load > 0:
		gen := workload.NewGenerator(workload.DefaultConfig(1000), cl.ID)
		var hist deploy.Hist
		deadline := time.Now().Add(*load)
		for time.Now().Before(deadline) {
			txn := gen.Next()
			txn.Seq = cl.Sub.NextSeq()
			begin := time.Now()
			if _, err := cl.Sub.SubmitTxn(ctx, txn); err != nil {
				log.Fatal(err)
			}
			hist.Record(time.Since(begin))
		}
		count := hist.Count()
		fmt.Printf("%d transactions in %v (%.0f txn/s closed-loop)\n",
			count, *load, float64(count)/load.Seconds())
		fmt.Printf("latency p50=%v p99=%v p999=%v mean=%v max=%v\n",
			hist.Quantile(0.50).Round(time.Microsecond),
			hist.Quantile(0.99).Round(time.Microsecond),
			hist.Quantile(0.999).Round(time.Microsecond),
			hist.Mean().Round(time.Microsecond),
			hist.Max().Round(time.Microsecond))
		fmt.Println("(closed-loop: one outstanding request; for open-loop offered-load sweeps use poeload)")
	default:
		log.Fatal("one of -set, -get, -load is required")
	}
}
