package yannakakis

// EnumerateSteps is Enumerate returning its step counter: tuples the walk
// looked at plus rows scanned while packing live lists.
var EnumerateSteps = enumerate
