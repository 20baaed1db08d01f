package kernel

// OpTableBytes returns the size of k's op table (0 without one).
func OpTableBytes(k *Kernel) int { return len(k.ops) }

// OpTableRows returns the number of rows k's op table holds (0 without
// one).
func OpTableRows(k *Kernel) int { return len(k.ops) / k.rowBytes }
