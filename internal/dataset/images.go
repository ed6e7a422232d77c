package dataset

import (
	"repro/internal/nn"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// GlyphConfig parameterizes the Omniglot-like glyph image generator used by
// the CNN-embedding few-shot pipeline. Each class is a procedural "glyph":
// a random walk of strokes on a small grid; samples are jittered, shifted
// renderings of the class glyph.
type GlyphConfig struct {
	Classes int
	Size    int     // square image side, e.g. 16
	Strokes int     // stroke segments per glyph
	Jitter  float64 // per-pixel intensity noise
}

// DefaultGlyphs is small enough to train a CNN embedding in seconds.
func DefaultGlyphs() GlyphConfig {
	return GlyphConfig{Classes: 30, Size: 16, Strokes: 6, Jitter: 0.15}
}

// GlyphUniverse holds per-class template images.
type GlyphUniverse struct {
	Cfg       GlyphConfig
	Templates []*nn.Image
	rng       *rngutil.Source
}

// NewGlyphUniverse draws the class templates.
func NewGlyphUniverse(cfg GlyphConfig, rng *rngutil.Source) *GlyphUniverse {
	u := &GlyphUniverse{Cfg: cfg, rng: rng.Child("glyph-samples")}
	tr := rng.Child("glyph-templates")
	for c := 0; c < cfg.Classes; c++ {
		im := nn.NewImage(1, cfg.Size, cfg.Size)
		// Random-walk strokes: start somewhere, take unit steps, stamp pixels.
		y, x := tr.Intn(cfg.Size), tr.Intn(cfg.Size)
		for s := 0; s < cfg.Strokes; s++ {
			length := 2 + tr.Intn(cfg.Size/2)
			dy, dx := tr.Intn(3)-1, tr.Intn(3)-1
			if dy == 0 && dx == 0 {
				dx = 1
			}
			for step := 0; step < length; step++ {
				if y >= 0 && y < cfg.Size && x >= 0 && x < cfg.Size {
					im.Set(0, y, x, 1)
				}
				y += dy
				x += dx
			}
			y = tensor.ClampInt(y, 0, cfg.Size-1)
			x = tensor.ClampInt(x, 0, cfg.Size-1)
		}
		u.Templates = append(u.Templates, im)
	}
	return u
}

// Sample renders one jittered example of class c: the template shifted by
// up to ±1 pixel with additive intensity noise.
func (u *GlyphUniverse) Sample(c int) *nn.Image {
	tpl := u.Templates[c]
	out := nn.NewImage(1, u.Cfg.Size, u.Cfg.Size)
	dy, dx := u.rng.Intn(3)-1, u.rng.Intn(3)-1
	for y := 0; y < u.Cfg.Size; y++ {
		for x := 0; x < u.Cfg.Size; x++ {
			sy, sx := y+dy, x+dx
			v := 0.0
			if sy >= 0 && sy < u.Cfg.Size && sx >= 0 && sx < u.Cfg.Size {
				v = tpl.At(0, sy, sx)
			}
			v += u.rng.Normal(0, u.Cfg.Jitter)
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			out.Set(0, y, x, v)
		}
	}
	return out
}
