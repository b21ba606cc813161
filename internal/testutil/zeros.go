package testutil

// Zeros is an endless io.Reader of zero bytes — bound it with
// io.LimitReader or io.CopyN to build a request body of any size without
// allocating it.
type Zeros struct{}

func (Zeros) Read(p []byte) (int, error) { clear(p); return len(p), nil }
