package suffixtree

// UkkonenReference exports the tests' Ukkonen reference to the external test
// package, which checks the disk index it writes.
var UkkonenReference = buildUkkonen
