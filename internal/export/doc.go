// Package export renders completed designs for inspection and
// fabrication. Columba S outputs an AutoCAD script file that can be
// directly exported for mask fabrication (Section 3.3); this package
// writes that script, plus an SVG rendering (the reproduction's analogue
// of the paper's design figures) and a JSON dump for downstream tooling.
//
// Key types: WriteSCR emits the AutoCAD script, WriteSVG and WriteASCII
// the visual renderings, WriteDXF a minimal DXF, and WriteJSON the
// JSONDesign document for downstream tooling.
//
// The geometry writers (SCR, DXF, SVG and the plan SVG) build one byte
// buffer each and print every coordinate through appendFixed1, which
// gives fmt's "%.1f" bytes without its big-decimal path; the SVG writers
// escape names as XML text.
package export
