// Package ctxflow exercises the ctxflow analyzer: a function that takes a
// context must not manufacture a fresh root context inside its body.
package ctxflow

import "context"

func handle(ctx context.Context) error {
	c := context.Background() // want `detaches the callee`
	_ = c
	_ = context.TODO() // want `detaches the callee`
	return ctx.Err()
}

// free takes no ctx; manufacturing a root context is its job.
func free() context.Context {
	return context.Background()
}

// detached manufactures a root context despite taking one: no comment
// excuses it.
func detached(ctx context.Context) context.Context {
	// lifecycle task whose lifetime is the process, not the request
	return context.Background() // want `detaches the callee`
}
