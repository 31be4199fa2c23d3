package geom

// Index is a uniform-grid spatial index over rectangles. The defect
// simulator performs millions of disk-vs-shape queries; a grid keeps each
// query local. Values are opaque int handles supplied by the caller
// (typically indices into a shape table).
type Index struct {
	bounds Rect
	nx, ny int
	cellW  float64
	cellH  float64
	cells  [][]int
	rects  []Rect
}

// NewIndex creates a grid index covering bounds with approximately
// targetCells cells. targetCells below 1 is treated as 1.
func NewIndex(bounds Rect, targetCells int) *Index {
	if targetCells < 1 {
		targetCells = 1
	}
	w, h := bounds.W(), bounds.H()
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	aspect := w / h
	ny := 1
	for ny*ny < int(float64(targetCells)/aspect) {
		ny++
	}
	nx := targetCells / ny
	if nx < 1 {
		nx = 1
	}
	return &Index{
		bounds: bounds,
		nx:     nx,
		ny:     ny,
		cellW:  w / float64(nx),
		cellH:  h / float64(ny),
		cells:  make([][]int, nx*ny),
	}
}

// Len returns the number of rectangles inserted.
func (ix *Index) Len() int { return len(ix.rects) }

// Rect returns the rectangle stored under handle id.
func (ix *Index) Rect(id int) Rect { return ix.rects[id] }

func (ix *Index) cellRange(r Rect) (cx0, cy0, cx1, cy1 int) {
	cx0 = int((r.X0 - ix.bounds.X0) / ix.cellW)
	cy0 = int((r.Y0 - ix.bounds.Y0) / ix.cellH)
	cx1 = int((r.X1 - ix.bounds.X0) / ix.cellW)
	cy1 = int((r.Y1 - ix.bounds.Y0) / ix.cellH)
	clamp := func(v, hi int) int {
		if v < 0 {
			return 0
		}
		if v > hi {
			return hi
		}
		return v
	}
	cx0, cx1 = clamp(cx0, ix.nx-1), clamp(cx1, ix.nx-1)
	cy0, cy1 = clamp(cy0, ix.ny-1), clamp(cy1, ix.ny-1)
	return
}

// Insert adds r to the index and returns its handle.
func (ix *Index) Insert(r Rect) int {
	id := len(ix.rects)
	ix.rects = append(ix.rects, r)
	cx0, cy0, cx1, cy1 := ix.cellRange(r)
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			c := cy*ix.nx + cx
			ix.cells[c] = append(ix.cells[c], id)
		}
	}
	return id
}

// QueryRect appends to dst the handle of every stored rectangle that
// intersects r (touching edges count) and returns the extended slice. A
// rectangle spanning several grid cells is appended once: each candidate
// is checked against the handles this call has already appended.
func (ix *Index) QueryRect(dst []int, r Rect) []int {
	n0 := len(dst)
	cx0, cy0, cx1, cy1 := ix.cellRange(r)
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
		cand:
			for _, id := range ix.cells[cy*ix.nx+cx] {
				if !ix.rects[id].Intersects(r) {
					continue
				}
				for _, h := range dst[n0:] {
					if h == id {
						continue cand
					}
				}
				dst = append(dst, id)
			}
		}
	}
	return dst
}

// QueryDisk appends to dst, once each, the handles of all rectangles that
// actually intersect the disk (not merely its bounding box), and returns
// the extended slice.
func (ix *Index) QueryDisk(dst []int, d Disk) []int {
	n0 := len(dst)
	dst = ix.QueryRect(dst, d.Bounds())
	out := dst[:n0]
	for _, id := range dst[n0:] {
		if d.IntersectsRect(ix.rects[id]) {
			out = append(out, id)
		}
	}
	return out
}
