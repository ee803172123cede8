//! Good fixture: one mark array owned for the reader's whole life.

/// One mark array owned by the reader for its whole life: each read only
/// resets the entries it set.
pub struct Reader {
    used: Vec<bool>,
}

impl Reader {
    pub fn read(&mut self, g: &[u32], seed: usize) -> usize {
        if self.used.len() < g.len() {
            self.used.resize(g.len(), false);
        }
        let Some(mark) = self.used.get_mut(seed) else {
            return 0;
        };
        *mark = true;
        let hits = self.used.iter().filter(|&&u| u).count();
        self.used[seed] = false;
        hits
    }
}
