package exp

// TranslationErrs returns the errors p's image cache remembers for its
// single-block and its enlarged translation.
func TranslationErrs(p *Prepared) (single, enlarged error) {
	p.imgs.mu.Lock()
	defer p.imgs.mu.Unlock()
	return p.imgs.single.err, p.imgs.enlarged.err
}
