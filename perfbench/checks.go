package main

import (
	"fmt"
	"hash/fnv"

	"orchestra"
	"orchestra/internal/core"
)

// decisionPrint hashes every peer's decision on every listed txn.
func decisionPrint(peers []*orchestra.Peer, ids []core.TxnID) string {
	h := fnv.New64a()
	for _, p := range peers {
		fmt.Fprintf(h, "%s:", p.ID())
		for _, id := range ids {
			d := byte('-')
			switch {
			case p.Engine().Applied(id):
				d = 'A'
			case p.Engine().Rejected(id):
				d = 'R'
			}
			fmt.Fprintf(h, "%s%c", id, d)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// decisionPrintAll is the fingerprint of every peer deciding d on every txn.
func decisionPrintAll(peers []*orchestra.Peer, ids []core.TxnID, d byte) string {
	h := fnv.New64a()
	for _, p := range peers {
		fmt.Fprintf(h, "%s:", p.ID())
		for _, id := range ids {
			fmt.Fprintf(h, "%s%c", id, d)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// hashStrings hashes a list of strings in order.
func hashStrings(ss []string) uint64 {
	h := fnv.New64a()
	for _, s := range ss {
		fmt.Fprintf(h, "%s;", s)
	}
	return h.Sum64()
}

// unwrapAll flattens an errors.Join tree one level.
func unwrapAll(err error) []error {
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		return j.Unwrap()
	}
	return []error{err}
}
