package mesh

// Hops reports the XY hop count between two nodes.
func (m *Mesh) Hops(src, dst int) int {
	x, y := m.coord(src)
	dx, dy := m.coord(dst)
	abs := func(v int) int {
		if v < 0 {
			return -v
		}
		return v
	}
	return abs(x-dx) + abs(y-dy)
}
