/* Sibling scopes reuse one name at two types, three times over. */
void sibling_blocks(int n, double *x, double *y) {
#pragma acc parallel loop copyin(x[0:n]) copy(y[0:n])
  for (int i = 0; i < n; i++) {
    double acc = 0.0;
    { int k = i + 1; acc = acc + (double)k; }
    { double k = x[i]; acc = acc + k * k; }
    { int k = 3; acc = acc + (double)(k * i); }
    y[i] = acc;
  }
}
