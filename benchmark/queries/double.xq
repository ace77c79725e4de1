(: Corner case (Fig. 4(g)) — the output needs the input twice. A
   streaming engine must buffer the whole document for the second copy;
   GCX supports the query but degrades to full buffering. :)
<double><r1>{/site}</r1>{/site}</double>
