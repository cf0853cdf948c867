package ionode

import "repro/internal/sim"

// Down reports whether the node is currently crashed.
func (s *Server) Down() bool { return s.down }

// DownUntil returns the advertised restart time while down (zero when
// up).
func (s *Server) DownUntil() sim.Time { return s.downUntil }
