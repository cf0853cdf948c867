package pfs

// RefRead exposes refRead, the process form of ReadCall, to the
// external drive test, which runs it under the reference closed-loop
// driver.
var RefRead = refRead
