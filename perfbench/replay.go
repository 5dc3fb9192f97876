package main

import (
	"fmt"
	"math/rand"
	"time"

	"prestigebft/internal/crypto"
	"prestigebft/internal/ledger"
	"prestigebft/internal/reputation"
	"prestigebft/internal/transport/codec"
	"prestigebft/internal/types"
)

// codecKinds are the hot message kinds whose codec cost is reported.
var codecKinds = []string{"Prop", "Notif", "Ord", "OrdReply", "Cmt", "CmtReply"}

// replayBudget is roughly how long each replay measurement loops.
const replayBudget = 100 * time.Millisecond

// timeLoop calls fn over items until replayBudget has passed (at least one
// full pass) and returns the mean time per call.
func timeLoop(items int, fn func(i int)) time.Duration {
	if items == 0 {
		return 0
	}
	calls := 0
	t0 := time.Now()
	for calls < items || time.Since(t0) < replayBudget {
		fn(calls % items)
		calls++
	}
	return time.Since(t0) / time.Duration(calls)
}

// replay measures single layers on messages and blocks captured from the
// traced run, through the same public functions the server calls.
func replay(c *captured, v map[string]float64) error {
	for _, k := range codecKinds {
		msgs := c.byKind[k]
		encoded := make([][]byte, len(msgs))
		size := 0
		for i, m := range msgs {
			b, ok := codec.Append(nil, m)
			if !ok {
				return fmt.Errorf("codec has no binary form for %s", k)
			}
			encoded[i] = b
			size += len(b)
		}
		var buf []byte
		enc := timeLoop(len(msgs), func(i int) { buf, _ = codec.Append(buf[:0], msgs[i]) })
		var decErr error
		dec := timeLoop(len(encoded), func(i int) {
			if _, err := codec.Decode(encoded[i]); err != nil {
				decErr = err
			}
		})
		if decErr != nil {
			return fmt.Errorf("decode %s: %w", k, decErr)
		}
		v["codec.encode_ns."+k] = float64(enc)
		v["codec.decode_ns."+k] = float64(dec)
		v["codec.bytes."+k] = ratio(float64(size), float64(len(msgs)))
	}
	if err := replayCrypto(c, v); err != nil {
		return err
	}
	return replayLedger(c, v)
}

func replayCrypto(c *captured, v map[string]float64) error {
	replies := c.byKind["OrdReply"]
	cmts := c.byKind["Cmt"]
	if len(replies) == 0 || len(cmts) == 0 {
		return fmt.Errorf("no OrdReply or Cmt captured")
	}
	_, serverKeys, _ := crypto.GenerateDeployment(keySeed, nServers, 64)
	cold, _, _ := crypto.GenerateDeployment(keySeed, nServers, 64)
	cached, _, _ := crypto.GenerateDeployment(keySeed, nServers, 64)
	cached.EnableVerifiedCache(0)

	stmt := func(i int) (types.ServerID, []byte, []byte) {
		m := replies[i].(*types.OrdReply)
		return m.From, m.SigningBytes(), m.Sig
	}
	sign := timeLoop(len(replies), func(i int) {
		id, msg, _ := stmt(i)
		serverKeys[id].Sign(msg)
	})
	var bad int
	verify := timeLoop(len(replies), func(i int) {
		id, msg, sig := stmt(i)
		if !cold.VerifyServer(id, msg, sig) {
			bad++
		}
	})
	for i := range replies {
		id, msg, sig := stmt(i)
		cached.VerifyServer(id, msg, sig)
	}
	hit := timeLoop(len(replies), func(i int) {
		id, msg, sig := stmt(i)
		if !cached.VerifyServer(id, msg, sig) {
			bad++
		}
	})
	quorum := types.QuorumSize(nServers)
	var qcErr error
	qc := timeLoop(len(cmts), func(i int) {
		if err := cold.VerifyQC(&cmts[i].(*types.Cmt).OrderingQC, quorum); err != nil {
			qcErr = err
		}
	})
	if bad > 0 || qcErr != nil {
		return fmt.Errorf("captured signatures fail verification (%d bad, QC: %v)", bad, qcErr)
	}
	v["crypto.sign_us"] = float64(sign) / 1e3
	v["crypto.verify_us"] = float64(verify) / 1e3
	v["crypto.verify_cached_us"] = float64(hit) / 1e3
	v["crypto.verifyqc_us"] = float64(qc) / 1e3
	return nil
}

func replayLedger(c *captured, v map[string]float64) error {
	blocks := c.blocks
	if len(blocks) == 0 {
		return fmt.Errorf("no committed blocks captured")
	}
	reg, _, _ := crypto.GenerateDeployment(keySeed, nServers, 64)
	// Fresh stores per pass: a block appends once.
	var appendT, applyT time.Duration
	var store *ledger.Store
	passes, txs := 0, 0
	t0 := time.Now()
	for passes == 0 || time.Since(t0) < replayBudget {
		checked := ledger.NewStore(nServers, 1, nil)
		unchecked := ledger.NewStore(nServers, 1, nil)
		for _, b := range blocks {
			s := time.Now()
			if err := checked.AppendTxBlock(reg, b); err != nil {
				return fmt.Errorf("append block %d: %w", b.Header.N, err)
			}
			appendT += time.Since(s)
			s = time.Now()
			if err := unchecked.AppendTxBlockUnchecked(reg, b); err != nil {
				return fmt.Errorf("apply block %d: %w", b.Header.N, err)
			}
			applyT += time.Since(s)
			txs += len(b.Txs)
		}
		store = checked
		passes++
	}
	v["ledger.append_us"] = float64(appendT) / 1e3 / float64(passes*len(blocks))
	v["ledger.apply_us_per_tx"] = ratio(float64(applyT)/1e3, float64(txs))

	eng := reputation.New()
	snap := store.Snapshot(2, int64(store.TxHeight()))
	calc := timeLoop(1, func(int) { eng.CalcRP(snap.V+1, snap) })
	v["reputation.calcrp_us"] = float64(calc) / 1e3

	// The puzzle a first campaign solves: reputation penalty 1 at
	// prestige-server's default of 4 bits per unit.
	bits := 4
	rng := rand.New(rand.NewSource(1))
	seed := crypto.PuzzleSeed(store.LatestTxBlock().Hash(), snap.V+1)
	var iters uint64
	solves := 0
	st := time.Now()
	for solves < 20 || time.Since(st) < replayBudget {
		_, _, n := crypto.SolvePuzzle(seed, bits, rng)
		iters += n
		solves++
	}
	v["pow.solve_ms"] = float64(time.Since(st)) / 1e6 / float64(solves)
	v["pow.solve_iters"] = float64(iters) / float64(solves)
	return nil
}
