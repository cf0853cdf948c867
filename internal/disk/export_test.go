package disk

import "errors"

// IsTransient reports whether err is (or wraps) a transient disk error —
// one that a retry of the same request will not reproduce.
func IsTransient(err error) bool {
	var de *Error
	return errors.As(err, &de) && de.Transient
}

// Dead reports whether the drive has been killed.
func (d *Disk) Dead() bool { return d.dead }
