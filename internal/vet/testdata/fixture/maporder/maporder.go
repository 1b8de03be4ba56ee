// Package maporder exercises the map-iteration-order check: loops that
// leak order into output are flagged; collect-then-sort and
// order-insensitive loops are not.
package maporder

import (
	"fmt"
	"sort"
)

// Dump prints while ranging a map: flagged.
func Dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}

// Leak returns keys in iteration order: flagged.
func Leak(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Keys is the sanctioned idiom — collect, then sort: clean.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Sum is order-insensitive: clean.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Audited ranges a map into output but is suppressed with a reason.
func Audited(m map[string]int) []string {
	var out []string
	//dsvet:ok map-order single-key map by construction
	for k := range m {
		out = append(out, k)
	}
	return out
}

// FirstKey keeps whichever matching key iteration meets first: flagged.
func FirstKey(m map[string]int, want int) string {
	found := ""
	for k, v := range m {
		if v == want {
			found = k
			break
		}
	}
	return found
}

// AnyKey returns one iteration's key: flagged.
func AnyKey(m map[string]int) string {
	for k := range m {
		return k
	}
	return ""
}

// Contains assigns a constant before leaving early, so every iteration
// order gives the same answer: clean.
func Contains(m map[string]int, want int) bool {
	found := false
	for _, v := range m {
		if v == want {
			found = true
			break
		}
	}
	return found
}
